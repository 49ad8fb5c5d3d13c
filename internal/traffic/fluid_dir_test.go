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

// NewFlow resolves each Hop through a map of owner cells to a NewDir
// direction with its link's capacity. These tests pin that a Hop is a key
// and nothing else: links at the same position of two Networks, and ends
// outside {0, 1}, each get a direction of their own.

// fanNode is a bare netem.Node with as many ports as a test binds.
type fanNode struct {
	name  string
	ports netem.Ports
}

func (n *fanNode) Name() string                { return n.name }
func (n *fanNode) Ports() *netem.Ports         { return &n.ports }
func (n *fanNode) Receive(int, *packet.Packet) {}

// fluidFan builds n parallel Network links between two nodes: link i
// joins port i of both.
func fluidFan(sched *sim.Scheduler, n int, bps float64) []*netem.Link {
	nw := netem.New(sched)
	a, b := &fanNode{name: "a"}, &fanNode{name: "b"}
	links := make([]*netem.Link, n)
	for i := range links {
		links[i] = nw.Connect(a, i, b, i, netem.LinkConfig{Bandwidth: bps, Delay: time.Microsecond})
	}
	return links
}

// TestFluidDirSlotOwner feeds one FluidNet links from two Networks, so
// link i of each has the same creation index. Each link must still own
// its direction and be allocated against its own capacity.
func TestFluidDirSlotOwner(t *testing.T) {
	sched := sim.NewScheduler()
	a := fluidChain(sched, []float64{10e6, 10e6})
	b := fluidChain(sched, []float64{4e6, 6e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	// Index 0: a's link first. Index 1: b's link first.
	fa1 := fn.NewFlow(8e6, []Hop{{Link: a[0], End: 0}})
	fa2 := fn.NewFlow(8e6, []Hop{{Link: a[0], End: 0}})
	fb0 := fn.NewFlow(8e6, []Hop{{Link: b[0], End: 0}})
	fb1 := fn.NewFlow(8e6, []Hop{{Link: b[1], End: 0}})
	fa3 := fn.NewFlow(8e6, []Hop{{Link: a[1], End: 0}})
	flows := []*FluidFlow{fa1, fa2, fb0, fb1, fa3}
	for _, f := range flows {
		f.Start()
	}
	if fn.dirs.n != 4 {
		t.Fatalf("%d directions over 4 link ends", fn.dirs.n)
	}
	sched.RunFor(10 * time.Millisecond)
	for i, want := range []float64{5e6, 5e6, 4e6, 6e6, 8e6} {
		if r := flows[i].Rate(); r != want {
			t.Fatalf("flow %d rate %v, want %v", i, r, want)
		}
	}
	if loadOf(fn, a[0], 0) != 10e6 || loadOf(fn, b[0], 0) != 4e6 || loadOf(fn, b[1], 0) != 6e6 || loadOf(fn, a[1], 0) != 8e6 {
		t.Fatalf("loads: a0=%v b0=%v b1=%v a1=%v", loadOf(fn, a[0], 0), loadOf(fn, b[0], 0), loadOf(fn, b[1], 0), loadOf(fn, a[1], 0))
	}
}

// TestFluidDirBadEnd: an End outside {0, 1} is part of its Hop's key
// like any other. It names a direction of its own, with its link's
// capacity, and no other link's: a table indexed by creation index*2+End
// would give links[0] at End 2 the direction of links[1] at End 0.
func TestFluidDirBadEnd(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6, 4e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	f := fn.NewFlow(8e6, []Hop{{Link: links[1], End: 0}})
	g := fn.NewFlow(8e6, []Hop{{Link: links[0], End: 2}})
	h := fn.NewFlow(8e6, []Hop{{Link: links[0], End: -1}})
	f.Start()
	g.Start()
	h.Start()
	sched.RunFor(10 * time.Millisecond)
	if fn.dirs.n != 3 || f.Rate() != 4e6 || g.Rate() != 8e6 || h.Rate() != 8e6 {
		t.Fatalf("%d directions; rates %v, %v, %v, want 3 and 4e6, 8e6, 8e6", fn.dirs.n, f.Rate(), g.Rate(), h.Rate())
	}
	if loadOf(fn, links[1], 0) != 4e6 || loadOf(fn, links[0], 2) != 8e6 || loadOf(fn, links[0], 0) != 0 {
		t.Fatalf("loads: links[1] end 0 %v, links[0] end 2 %v, links[0] end 0 %v",
			loadOf(fn, links[1], 0), loadOf(fn, links[0], 2), loadOf(fn, links[0], 0))
	}
}

// TestFluidDirAllocs pins the arrival path's allocations. A flow that
// was never started recycles on Release, so each NewFlow below reuses one
// flow object and its hop records, and Release frees its directions at
// once: 2^16 first touches hold four directions. What is left is NewFlow's
// own state: nothing over Hops it has resolved before; over first
// touches, the growth of its map and cell slab, amortised under one
// allocation per 64 Hops even when links are touched in ascending order.
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
	if len(fn.hopDirs) != 2*nl || fn.dirs.n != 4 || fn.reusedDirs != uint64(touched) {
		t.Fatalf("%d Hops resolved to %d directions, %d of them reused; want %d, 4, %d",
			len(fn.hopDirs), fn.dirs.n, fn.reusedDirs, 2*nl, touched)
	}
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("%d first touches made %d allocations", touched, mallocs)
	if mallocs*64 > uint64(touched) {
		t.Fatalf("%d first touches made %d allocations, want at most one per 64", touched, mallocs)
	}

	next := 0
	if avg := testing.AllocsPerRun(200, func() {
		arrive(next)
		next = (next + 2) % nl
	}); avg != 0 {
		t.Fatalf("NewFlow over resolved Hops allocates %.2f times, want 0", avg)
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
// NewFlow on a recycled flow object, whose Release frees its directions
// — over Network-built links, at the three fat-tree path lengths (same
// edge, same pod, cross pod): over Hops NewFlow has not seen
// (first-touch: a map insert and a cell from the slab), and over Hops it
// has (steady: map reads only). Both reuse a freed direction id per hop.
// Links are drawn at random, so both legs take the cache misses a real
// fabric's arrivals take. Runs under bench-guard's -benchmem leg, where
// steady is the zero-allocation canary; first-touch amortises a slab
// chunk per 8,192 Hops and the map's growth, so its single -benchtime 1x
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
		{"FluidFlow", unsafe.Sizeof(FluidFlow{}), 2 * unsafe.Sizeof(uintptr(0))}, // 16 on 64-bit
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

// TestFluidFlowFootprint bounds what registering a flow costs the live
// heap: its slot (64 B), accounting record (32 B) and handle (16 B), plus
// paging slack (a part-filled last page per array, the page tables, the
// runtime's own bookkeeping), which 6 B a flow covers at this count: 100k
// flows over six directions, none started, may grow the heap by at most
// 118 B each, 11.8 MB. They grow it by about 114 B each.
func TestFluidFlowFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the records are laid out for 64-bit words")
	}
	const n, perFlow = 100_000, 64 + 32 + 16 + 6
	fn := NewFluidNet(sim.NewScheduler(), FluidConfig{})
	var owners [6]int32
	path := make([]int32, len(owners))
	for i := range owners {
		path[i] = fn.NewDir(10e6, &owners[i])
	}
	flows := make([]*FluidFlow, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range flows {
		flows[i] = fn.NewFlowDirs(1e6, path[:1+i%len(path)])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d flows grew the live heap by %d B, %.1f B a flow", n, grew, float64(grew)/n)
	if grew > n*perFlow {
		t.Fatalf("%d flows grew the live heap by %d B, %.1f B a flow; want at most %d B a flow", n, grew, float64(grew)/n, perFlow)
	}
	runtime.KeepAlive(flows)
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
		if int(d.registered) > slabChunk/4 {
			own++
		}
		if cap(d.flows) != int(d.registered) {
			t.Fatalf("occurrence list sized %d for %d registered", cap(d.flows), d.registered)
		}
	}
	chunks := (n*hops+slabChunk-1)/slabChunk + 1 // one more for stranded tails
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
		if id := *fn.hopDirs[want[i]] - 1; hp.dir != id {
			t.Fatalf("recycled flow's hop %d crosses direction %d, want %d", i, hp.dir, id)
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

	var owner int32
	ids := make([]int32, maxHops+1)
	for i, id := 0, fn.NewDir(10e6, &owner); i < len(ids); i++ {
		ids[i] = id
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
