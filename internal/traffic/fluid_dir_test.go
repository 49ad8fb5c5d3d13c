package traffic

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/sim"
)

// The allocator finds a direction's state two ways: by Link.Index() in
// a table (links built through a netem.Network) or by pointer in a map
// (standalone links, and links whose table slot another Network's link
// took first). These tests pin that the choice is invisible in the
// allocation and that neither path leaks into the other.

// fanNode is a bare netem.Node with as many ports as a test binds.
type fanNode struct {
	name  string
	ports netem.Ports
}

func (n *fanNode) Name() string                { return n.name }
func (n *fanNode) Ports() *netem.Ports         { return &n.ports }
func (n *fanNode) Receive(int, *packet.Packet) {}

// fluidFan builds n parallel Network links between two nodes: link i
// has Index() i and joins port i of both.
func fluidFan(sched *sim.Scheduler, n int, bps float64) []*netem.Link {
	nw := netem.New(sched)
	a, b := &fanNode{name: "a"}, &fanNode{name: "b"}
	links := make([]*netem.Link, n)
	for i := range links {
		links[i] = nw.Connect(a, i, b, i, netem.LinkConfig{Bandwidth: bps, Delay: time.Microsecond})
	}
	return links
}

// TestFluidDirTableMatchesMap replays the randomized start / stop /
// SetDemand / SetCapacity script of TestFluidIncrementalMatchesFullResettle
// over Network-built links (table path) and over identically configured
// standalone links (map path): every flow rate and link load must agree
// bit for bit at every epoch boundary.
func TestFluidDirTableMatchesMap(t *testing.T) {
	caps := []float64{7e6, 11e6, 5e6, 9e6, 13e6, 6e6}
	const nf = 24
	for seed := int64(1); seed <= 4; seed++ {
		ops := genFluidScript(seed, 20, 4, nf, len(caps))

		sched, links := fluidRig(t, caps)
		indexed := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
		want := runFluidScriptOn(sched, indexed, links, ops, nf)
		if indexed.dirOf != nil || len(indexed.dirTab) == 0 {
			t.Fatalf("seed %d: Network links used the map (%d entries, table %d)",
				seed, len(indexed.dirOf), len(indexed.dirTab))
		}

		sched = sim.NewScheduler()
		bare := make([]*netem.Link, len(caps))
		for i, c := range caps {
			bare[i] = netem.NewLink(sched, "", netem.LinkConfig{Bandwidth: c, Delay: time.Microsecond})
		}
		standalone := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
		got := runFluidScriptOn(sched, standalone, bare, ops, nf)
		if len(standalone.dirTab) != 0 || len(standalone.dirOf) == 0 {
			t.Fatalf("seed %d: standalone links used the table (%d slots, map %d)",
				seed, len(standalone.dirTab), len(standalone.dirOf))
		}
		sameFluidSig(t, fmt.Sprintf("seed %d, standalone vs indexed", seed), got, want)
	}
}

// TestFluidDirSlotOwner feeds one FluidNet links from two Networks, so
// every index collides. Whichever link reaches a slot first keeps it and
// the other falls back to the map; each must still be allocated against
// its own capacity and found again by SetCapacity.
func TestFluidDirSlotOwner(t *testing.T) {
	sched := sim.NewScheduler()
	a := fluidChain(sched, []float64{10e6, 10e6})
	b := fluidChain(sched, []float64{4e6, 6e6})
	if a[0].Index() != b[0].Index() || a[1].Index() != b[1].Index() {
		t.Fatalf("rig: indices do not collide: %d/%d %d/%d", a[0].Index(), b[0].Index(), a[1].Index(), b[1].Index())
	}
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	// Slot 0: a's link first. Slot 2: b's link first.
	fa1 := fn.NewFlow(8e6, []Hop{{Link: a[0], End: 0}})
	fa2 := fn.NewFlow(8e6, []Hop{{Link: a[0], End: 0}})
	fb0 := fn.NewFlow(8e6, []Hop{{Link: b[0], End: 0}})
	fb1 := fn.NewFlow(8e6, []Hop{{Link: b[1], End: 0}})
	fa3 := fn.NewFlow(8e6, []Hop{{Link: a[1], End: 0}})
	flows := []*FluidFlow{fa1, fa2, fb0, fb1, fa3}
	for _, f := range flows {
		f.Start()
	}
	if len(fn.dirOf) != 2 {
		t.Fatalf("map holds %d directions, want the 2 that lost their slot", len(fn.dirOf))
	}
	check := func(when string, want ...float64) {
		t.Helper()
		sched.RunFor(10 * time.Millisecond)
		for i, f := range flows {
			if f.Rate() != want[i] {
				t.Fatalf("%s: flow %d rate %v, want %v", when, i, f.Rate(), want[i])
			}
		}
	}
	check("first settle", 5e6, 5e6, 4e6, 6e6, 8e6)
	if a[0].FluidLoad(0) != 10e6 || b[0].FluidLoad(0) != 4e6 || b[1].FluidLoad(0) != 6e6 || a[1].FluidLoad(0) != 8e6 {
		t.Fatalf("loads: a0=%v b0=%v b1=%v a1=%v", a[0].FluidLoad(0), b[0].FluidLoad(0), b[1].FluidLoad(0), a[1].FluidLoad(0))
	}
	fn.SetCapacity(b[0], 0, 2e6) // map entry; a[0] owns the slot
	check("shrink b0", 5e6, 5e6, 2e6, 6e6, 8e6)
	fn.SetCapacity(a[1], 0, 3e6) // map entry; b[1] owns the slot
	check("shrink a1", 5e6, 5e6, 2e6, 6e6, 3e6)
	fn.SetCapacity(b[1], 0, 1e6) // slot owner
	check("shrink b1", 5e6, 5e6, 2e6, 1e6, 3e6)
}

// TestFluidDirSetCapacityUntouched: SetCapacity on a direction no flow
// has traversed — inside the table or beyond its end — changes nothing,
// schedules no settle and does not grow the table.
func TestFluidDirSetCapacityUntouched(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6, 10e6, 10e6, 10e6, 10e6, 10e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	f := fn.NewFlow(8e6, []Hop{{Link: links[2], End: 0}})
	f.Start()
	sched.RunFor(10 * time.Millisecond)
	size, settles := len(fn.dirTab), fn.Settles()
	if size == 0 || size > 2*links[5].Index() {
		t.Fatalf("rig: table has %d slots, want some but not link 5's", size)
	}
	fn.SetCapacity(links[1], 0, 1e6) // inside the table, never traversed
	fn.SetCapacity(links[2], 1, 1e6) // the traversed link's other direction
	fn.SetCapacity(links[5], 1, 1e6) // beyond the table
	sched.RunFor(20 * time.Millisecond)
	if len(fn.dirTab) != size || fn.dirs.n != 1 || fn.dirOf != nil {
		t.Fatalf("untouched SetCapacity created state: table %d -> %d, dirs %d, map %d",
			size, len(fn.dirTab), fn.dirs.n, len(fn.dirOf))
	}
	if fn.Settles() != settles || f.Rate() != 8e6 {
		t.Fatalf("untouched SetCapacity settled: settles %d -> %d, rate %v", settles, fn.Settles(), f.Rate())
	}
}

// TestFluidDirBadEnd: an End outside {0, 1} would index the next link's
// slot. NewFlow panics on it like on a nil link; SetCapacity ignores it.
func TestFluidDirBadEnd(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6, 10e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	for _, end := range []int{2, -1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewFlow accepted End %d", end)
				}
			}()
			fn.NewFlow(1e6, []Hop{{Link: links[0], End: end}})
		}()
	}
	// links[0] with End 2 would alias links[1] End 0.
	f := fn.NewFlow(8e6, []Hop{{Link: links[1], End: 0}})
	f.Start()
	sched.RunFor(10 * time.Millisecond)
	settles := fn.Settles()
	fn.SetCapacity(links[0], 2, 1e6)
	fn.SetCapacity(links[0], -1, 1e6) // slot -1
	fn.SetCapacity(nil, 0, 1e6)
	sched.RunFor(20 * time.Millisecond)
	if fn.Settles() != settles || f.Rate() != 8e6 {
		t.Fatalf("bad-end SetCapacity took effect: settles %d -> %d, rate %v", settles, fn.Settles(), f.Rate())
	}
}

// TestFluidDirAllocs pins the arrival path's allocations. A flow that
// was never started recycles on Release, so each NewFlow below reuses
// one flow object and its hop records, and what is left is direction
// state: nothing over directions already touched; over first touches,
// direction pages plus the growth of the table — amortised under one
// allocation per 256 directions even when links are touched in
// ascending order, the table's worst case.
func TestFluidDirAllocs(t *testing.T) {
	const nl = 1 << 15
	sched := sim.NewScheduler()
	links := fluidFan(sched, nl, 10e6)
	fn := NewFluidNet(sched, FluidConfig{})
	path := make([]Hop, 4)
	arrive := func(first int) {
		for i := range path {
			path[i] = Hop{Link: links[first+i/2], End: i % 2}
		}
		fn.NewFlow(1e6, path).Release()
	}
	arrive(0) // allocates the flow object and its hop records

	// Mallocs is process-wide; like testing.AllocsPerRun, keep other
	// goroutines off the CPUs while counting.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for first := 2; first < nl; first += 2 {
		arrive(first)
	}
	runtime.ReadMemStats(&after)
	touched := 2*nl - 4
	if fn.dirs.n != 2*nl || fn.dirOf != nil {
		t.Fatalf("touched %d directions (map %d), want %d in the table", fn.dirs.n, len(fn.dirOf), 2*nl)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs*256 > uint64(touched) {
		t.Fatalf("%d first touches made %d allocations, want at most one per 256", touched, mallocs)
	}

	next := 0
	if avg := testing.AllocsPerRun(200, func() {
		arrive(next)
		next = (next + 2) % nl
	}); avg != 0 {
		t.Fatalf("NewFlow over touched directions allocates %.2f times, want 0", avg)
	}
}

// TestFluidDirRecycle pins a link-less direction's life. NewDir writes
// id+1 through its owner. The direction is freed at the end of the settle
// that retires the last flow crossing it (at once when that flow was
// never listed): the owner reads 0 again, the next NewDir reuses the id
// with a clean record and visit mark and keeps its occurrence array, and
// NewFlowDirs refuses the id while it is free.
func TestFluidDirRecycle(t *testing.T) {
	sched := sim.NewScheduler()
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	var a, b int32
	da, db := fn.NewDir(10e6, &a), fn.NewDir(6e6, &b)
	if a != da+1 || b != db+1 {
		t.Fatalf("owners hold %d and %d for directions %d and %d", a, b, da, db)
	}
	f, g := fn.NewFlowDirs(8e6, []int32{da, db}), fn.NewFlowDirs(8e6, []int32{db})
	f.Start()
	g.Start()
	sched.RunFor(10 * time.Millisecond)
	f.Release()
	if a == 0 {
		t.Fatal("direction freed before the settle that retires its flow")
	}
	sched.RunFor(10 * time.Millisecond)
	if a != 0 || b != db+1 || g.Rate() != 6e6 {
		t.Fatalf("after the retiring settle: owners %d and %d, want 0 and %d; rate %v, want 6e6", a, b, db+1, g.Rate())
	}

	var c int32
	dc := fn.NewDir(5e6, &c)
	d := fn.dirs.at(dc)
	if dc != da || c != dc+1 || fn.dirs.n != 2 || fn.reusedDirs != 1 {
		t.Fatalf("NewDir after a free: id %d (freed %d), owner %d, %d held, %d reused", dc, da, c, fn.dirs.n, fn.reusedDirs)
	}
	if d.cap != 5e6 || d.load != 0 || d.registered != 0 || len(d.flows) != 0 || cap(d.flows) == 0 || *fn.visits.at(dc) != (dirVisit{}) {
		t.Fatalf("reused record: cap %v, load %v, %d registered, occurrences %d of %d, visit %+v",
			d.cap, d.load, d.registered, len(d.flows), cap(d.flows), *fn.visits.at(dc))
	}
	fn.NewFlowDirs(1e6, []int32{dc}).Release() // never listed: freed at once
	if c != 0 {
		t.Fatalf("a never-listed flow's release left the owner at %d", c)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("NewFlowDirs accepted a freed direction")
		}
	}()
	fn.NewFlowDirs(1e6, []int32{db, dc})
}

// BenchmarkFluidNewFlow measures one flow arrival's registration —
// NewFlow on a recycled flow object — over Network-built links, at the
// three fat-tree path lengths (same edge, same pod, cross pod), the way
// the churn engine pays for it: over directions nothing has traversed
// yet (first-touch: table insert plus a slab record), and over
// directions already known (steady: table reads only). Links are drawn
// at random, so both legs take the cache misses a real fabric's arrivals
// take. Runs under bench-guard's -benchmem leg, where steady is the
// zero-allocation canary; first-touch amortises a slab chunk per 512
// directions and the growth of two slices, so its single -benchtime 1x
// iteration may land on one of those.
func BenchmarkFluidNewFlow(b *testing.B) {
	const nl = 1 << 16
	sched := sim.NewScheduler()
	links := fluidFan(sched, nl, 10e6)
	order := rand.New(rand.NewSource(1)).Perm(nl)
	for _, hops := range []int{2, 4, 6} {
		path := make([]Hop, hops)
		// arrive registers one flow over the next hops links of order.
		arrive := func(fn *FluidNet, at int) {
			for i := range path {
				path[i] = Hop{Link: links[order[at+i]], End: i % 2}
			}
			fn.NewFlow(1e6, path).Release()
		}
		b.Run(fmt.Sprintf("first-touch/hops=%d", hops), func(b *testing.B) {
			b.ReportAllocs()
			var fn *FluidNet
			at := nl // out of links: the first iteration builds the allocator
			for it := 0; it < b.N; it++ {
				if at+hops > nl {
					b.StopTimer()
					fn = NewFluidNet(sched, FluidConfig{})
					arrive(fn, 0) // allocates the one flow object
					at = hops
					b.StartTimer()
				}
				arrive(fn, at)
				at += hops
			}
		})
		b.Run(fmt.Sprintf("steady/hops=%d", hops), func(b *testing.B) {
			fn := NewFluidNet(sched, FluidConfig{})
			for at := 0; at+hops <= nl; at += hops {
				arrive(fn, at)
			}
			b.ReportAllocs()
			b.ResetTimer()
			at := 0
			for it := 0; it < b.N; it++ {
				if at+hops > nl {
					at = 0
				}
				arrive(fn, at)
				at += hops
			}
		})
	}
}

// The graph's storage is sized once: a direction counts the hops
// registered through it and its occurrence list is first carved to that
// count; a flow's hops live in its slot record, which it keeps across
// recycling. The tests below pin the layout, the count, the allocations
// and the reuse.

// hasPointers reports whether a value of type t holds a pointer the
// collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestFluidGraphRecords pins the graph's layout: hop, occurrence and
// visit records are 8 bytes, a flow's accounting record 32, and a slot or
// direction record one cache line, every field of the slot, which holds
// all the walk and grow read of a flow, within it; the first three, the
// slot and accounting records and every element of a settle's compiled
// arrays hold no pointers, so the collector never scans them and
// appending to them needs no write barrier.
func TestFluidGraphRecords(t *testing.T) {
	for _, r := range []struct {
		name       string
		size, want uintptr
	}{
		{"flowHop", unsafe.Sizeof(flowHop{}), 8},
		{"dirFlow", unsafe.Sizeof(dirFlow{}), 8},
		{"dirVisit", unsafe.Sizeof(dirVisit{}), 8},
		{"flowSlot", unsafe.Sizeof(flowSlot{}), 64},
		{"flowAcct", unsafe.Sizeof(flowAcct{}), 32},
		{"fluidDir", unsafe.Sizeof(fluidDir{}), 64},
	} {
		if r.want >= 32 && unsafe.Sizeof(uintptr(0)) != 8 {
			continue // the cache-line records are laid out for 64-bit words
		}
		if r.size != r.want {
			t.Errorf("%s is %d bytes, want %d", r.name, r.size, r.want)
		}
	}
	slot := reflect.TypeOf(flowSlot{})
	for i := 0; i < slot.NumField(); i++ {
		if f := slot.Field(i); f.Offset+f.Type.Size() > 64 {
			t.Errorf("flowSlot.%s ends at byte %d, past the slot's cache line", f.Name, f.Offset+f.Type.Size())
		}
	}
	types := []reflect.Type{
		reflect.TypeOf(flowHop{}), reflect.TypeOf(dirFlow{}), reflect.TypeOf(dirVisit{}),
		slot, reflect.TypeOf(flowAcct{}), reflect.TypeOf(fluidComp{}),
	}
	cc := reflect.TypeOf(compiled{})
	for i := 0; i < cc.NumField(); i++ {
		f := cc.Field(i)
		if f.Type.Kind() != reflect.Slice {
			t.Fatalf("compiled.%s is a %s, want a slice", f.Name, f.Type)
		}
		types = append(types, f.Type.Elem())
	}
	for _, ty := range types {
		if hasPointers(ty) {
			t.Errorf("%s holds pointers", ty)
		}
	}
}

// checkRegistered fails unless every direction's registered count equals
// the hop occurrences through it over the given (un-recycled) flows, and
// bounds its occurrence list.
func checkRegistered(t *testing.T, when string, fn *FluidNet, flows []*FluidFlow) {
	t.Helper()
	want := make([]int32, fn.dirs.n)
	for _, f := range flows {
		if f != nil {
			for _, h := range fn.flowHops(f.slot) {
				want[h.dir]++
			}
		}
	}
	for i := int32(0); i < fn.dirs.n; i++ {
		d := fn.dirs.at(i)
		if d.registered != want[i] {
			t.Fatalf("%s: direction %d registered %d, want %d", when, i, d.registered, want[i])
		}
		if len(d.flows) > int(d.registered) {
			t.Fatalf("%s: direction %d lists %d occurrences of %d registered", when, i, len(d.flows), d.registered)
		}
	}
}

// TestFluidRegisteredCount drives a random NewFlow / Start / Stop /
// Release script, settles included, over paths of which some cross one
// direction twice, checking the counts after every step: each
// direction's registered count, and the active and unretired counters
// (checkCounters), which between settles meet Release'd flows still
// awaiting retirement.
func TestFluidRegisteredCount(t *testing.T) {
	sched, links := fluidRig(t, []float64{7e6, 11e6, 5e6, 9e6})
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
		flows := make([]*FluidFlow, 12) // nil: not registered, or released
		var pending []*FluidFlow        // released while listed: counted until their settle recycles them
		met := 0                        // steps that end with a flow awaiting retirement
		for step := 0; step < 400; step++ {
			i := rng.Intn(len(flows))
			f := flows[i]
			switch op := rng.Intn(5); {
			case f == nil:
				var path []Hop
				for n := rng.Intn(4); n >= 0; n-- {
					path = append(path, Hop{Link: links[rng.Intn(len(links))], End: rng.Intn(2)})
				}
				if rng.Intn(3) == 0 {
					path = append(path, path[0]) // the same direction twice
				}
				flows[i] = fn.NewFlow(float64(1+rng.Intn(9))*1e6, path)
			case op == 0:
				f.Start()
			case op == 1:
				f.Stop()
			case op == 2:
				if f.Release(); unretired(fn, f.slot) {
					pending = append(pending, f)
				}
				flows[i] = nil
			default:
				sched.RunFor(10 * time.Millisecond)
				pending = pending[:0] // the settle delisted and recycled them
			}
			counted := append(pending[:len(pending):len(pending)], flows...) // a copy: pending is appended to later
			checkRegistered(t, fmt.Sprintf("seed %d step %d", seed, step), fn, counted)
			checkCounters(t, fn)
			if fn.unretired > 0 {
				met++
			}
		}
		if fn.Recycled() == 0 || met == 0 {
			t.Fatalf("seed %d: script recycled %d flows and met a pending retirement at %d steps", seed, fn.Recycled(), met)
		}
	}
}

// registerWave registers n flows of the given hop count over random
// links of the fan, none started.
func registerWave(fn *FluidNet, links []*netem.Link, rng *rand.Rand, n, hops int) []*FluidFlow {
	flows := make([]*FluidFlow, n)
	path := make([]Hop, hops)
	for i := range flows {
		for j := range path {
			path[j] = Hop{Link: links[rng.Intn(len(links))], End: j % 2}
		}
		flows[i] = fn.NewFlow(15e6, path)
	}
	return flows
}

// TestFluidStartWaveAllocs: starting flows that were all registered
// beforehand allocates the two reserved lists and the occurrence slab's
// chunks (plus an array apiece for the few lists over a quarter chunk),
// not a growing array per direction — and nothing at all the second time
// round, when every list already has its size.
func TestFluidStartWaveAllocs(t *testing.T) {
	const n, hops, nl = 20000, 4, 256
	sched := sim.NewScheduler()
	links := fluidFan(sched, nl, 10e9)
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	flows := registerWave(fn, links, rand.New(rand.NewSource(1)), n, hops)
	start := func() {
		for _, f := range flows {
			f.Start()
		}
	}
	settleAndStop := func() {
		sched.RunFor(10 * time.Millisecond)
		for _, f := range flows {
			f.Stop()
		}
		sched.RunFor(10 * time.Millisecond)
	}
	cycle := func() { start(); settleAndStop() }

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start()
	runtime.ReadMemStats(&after)
	own := 0 // lists too long for the slab
	for id := int32(0); id < fn.dirs.n; id++ {
		d := fn.dirs.at(id)
		if int(d.registered) > occSlabChunk/4 {
			own++
		}
		if cap(d.flows) != int(d.registered) {
			t.Fatalf("occurrence list sized %d for %d registered", cap(d.flows), d.registered)
		}
	}
	chunks := (n*hops+occSlabChunk-1)/occSlabChunk + 1 // one more for stranded tails
	if mallocs := int(after.Mallocs - before.Mallocs); mallocs > 2+chunks+own+2 {
		t.Fatalf("start wave of %d flows made %d allocations, want at most 2 lists + %d chunks + %d own arrays + 2 for the epoch timer",
			n, mallocs, chunks, own)
	}
	if cap(fn.flows) != n {
		t.Fatalf("flow list reserved %d, want the %d registered", cap(fn.flows), n)
	}
	settleAndStop()

	cycle() // component scratch sizes itself
	if avg := testing.AllocsPerRun(3, cycle); avg != 0 {
		t.Fatalf("a later start/stop cycle allocates %.1f times, want 0", avg)
	}
}

// TestFluidRecycleKeepsSlot: a recycled flow keeps its slot and its
// handle and takes the new path's hops, whether it was released before it
// was ever listed or retired by a settle, and no other live flow's hops
// change. NewFlowDirs takes a path of six hops, a fat tree's longest, and
// panics on a seventh.
func TestFluidRecycleKeepsSlot(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6, 10e6, 10e6, 10e6})
	fn := NewFluidNet(sched, FluidConfig{})
	path := func(first, n int) []Hop {
		p := make([]Hop, n)
		for i := range p {
			p[i] = Hop{Link: links[(first+i)%len(links)], End: (first + i) / len(links) % 2}
		}
		return p
	}
	hops := func(f *FluidFlow) []flowHop { return append([]flowHop(nil), fn.flowHops(f.slot)...) }
	live := []*FluidFlow{fn.NewFlow(1e6, path(1, 2)), fn.NewFlow(1e6, path(2, 5))}
	live[0].Start()
	live[1].Start()
	sched.RunFor(10 * time.Millisecond)
	before := [][]flowHop{hops(live[0]), hops(live[1])}

	f := fn.NewFlow(1e6, path(0, 3))
	slot := f.slot
	f.Release() // never listed: recycled at once
	g := fn.NewFlow(1e6, path(3, 6))
	g.Start()
	sched.RunFor(10 * time.Millisecond)
	g.Release() // listed: recycled by the settle that delists it
	sched.RunFor(10 * time.Millisecond)
	h := fn.NewFlow(1e6, path(5, 4))
	if g != f || h != f || h.slot != slot || fn.Recycled() != 2 {
		t.Fatalf("recycling moved the flow: same handle %v, %v; slot %d, was %d; %d recycled", g == f, h == f, h.slot, slot, fn.Recycled())
	}
	want := path(5, 4)
	if got := fn.flowHops(slot); len(got) != len(want) {
		t.Fatalf("recycled flow has %d hops, want %d", len(got), len(want))
	}
	for i, hp := range fn.flowHops(slot) {
		if hp.dir != fn.HopDir(want[i]) {
			t.Fatalf("recycled flow's hop %d crosses direction %d, want %d", i, hp.dir, fn.HopDir(want[i]))
		}
	}
	for i, f := range live {
		if got := hops(f); !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("recycling changed live flow %d's hops: %v, was %v", i, got, before[i])
		}
	}
	h.Start()
	sched.RunFor(10 * time.Millisecond)
	if h.Rate() != 1e6 || live[0].Rate() != 1e6 || live[1].Rate() != 1e6 {
		t.Fatalf("rates after recycling: %v, %v, %v, want 1e6 each", h.Rate(), live[0].Rate(), live[1].Rate())
	}
	checkRegistered(t, "after recycling", fn, []*FluidFlow{h, live[0], live[1]})

	ids := make([]int32, maxHops+1)
	for i := range ids {
		ids[i] = fn.HopDir(Hop{Link: links[0], End: 0})
	}
	if got := len(fn.flowHops(fn.NewFlowDirs(1e6, ids[:maxHops]).slot)); got != maxHops {
		t.Fatalf("a %d-hop path registered %d hops", maxHops, got)
	}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "hop limit") {
			t.Fatalf("NewFlowDirs on a %d-hop path panicked with %v, want its hop-limit refusal", len(ids), r)
		}
	}()
	fn.NewFlowDirs(1e6, ids)
}

// BenchmarkFluidStartWave measures a bulk start the way the hybrid run
// pays for it: register 100k flows, start them all, settle once.
func BenchmarkFluidStartWave(b *testing.B) {
	const n, nl = 100000, 1 << 12
	for _, hops := range []int{2, 6} {
		b.Run(fmt.Sprintf("hops=%d", hops), func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				sched := sim.NewScheduler()
				links := fluidFan(sched, nl, 10e9)
				fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
				for _, f := range registerWave(fn, links, rand.New(rand.NewSource(1)), n, hops) {
					f.Start()
				}
				sched.RunFor(10 * time.Millisecond)
				if fn.Settles() != 1 {
					b.Fatalf("%d settles, want 1", fn.Settles())
				}
			}
		})
	}
}
