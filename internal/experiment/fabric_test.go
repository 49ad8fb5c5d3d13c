package experiment

import (
	"math"
	"runtime"
	"testing"

	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
	"netco/internal/traffic"
)

// BenchmarkFluidFabricBuild prices the packet fat-tree fabric, at arity
// 16: 1,024 hosts and 3,072 links. Only RunScale and the hybrid engine's
// PacketFabric baseline build it; fluid-only runs route over a
// fatTreeDirs table instead (TestFluidTreeBuildAllocs). Its B/op and
// allocs/op are what a change to the link or host layout moves.
func BenchmarkFluidFabricBuild(b *testing.B) {
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fabricSink = buildFluidFabric(netem.New(sim.NewScheduler()), p, 16)
	}
}

var fabricSink *fluidFabric

// TestFluidFabricBuildAllocs pins the arity-16 fabric build's footprint
// (1,024 hosts, 3,072 links): a network with no node registry, one
// object per host and names built without fmt. Another object on every
// host, or a node map, fails it. Each bound is the least of five builds,
// which keeps the runtime's own occasional allocations out.
func TestFluidFabricBuildAllocs(t *testing.T) {
	p := DefaultParams()
	objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fabricSink = buildFluidFabric(netem.New(sim.NewScheduler()), p, 16)
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if objects > 4_849 || bytes > 1_600_000 {
		t.Fatalf("arity-16 fabric build allocated %d objects and %d B, want at most 4,849 and 1,600,000", objects, bytes)
	}
}

// TestFluidTreeMatchesRoutes pins the direction table to the packet
// routing. At arities 4, 6 and 8 it walks installRoutes' proactive flow
// tables for every ordered host pair: from the source's access link,
// Lookup on the destination MAC gives an output port, Ports.Ref its link
// end, and the walk moves to the peer switch until it reaches the
// destination. The table built through the fabric must name exactly those
// link ends, in order; the link-less table, touched in the same order,
// must give the same ids, and each direction the capacity of its link.
func TestFluidTreeMatchesRoutes(t *testing.T) {
	p := DefaultParams()
	for _, arity := range []int{4, 6, 8} {
		sched := sim.NewScheduler()
		fb := buildFluidFabric(netem.New(sched), p, arity)
		fb.installRoutes()
		linked := newFatTreeDirs(traffic.NewFluidNet(sched, traffic.FluidConfig{}), p, arity)
		linked.ft = fb.ft
		bare := newFatTreeDirs(traffic.NewFluidNet(sched, traffic.FluidConfig{}), p, arity)
		linkCap := make(map[int32]float64)
		var walk []traffic.Hop
		var ids, bareIDs []int32
		for src, sh := range fb.hosts {
			for dst, dh := range fb.hosts {
				if src == dst {
					continue
				}
				walk = walkRoutes(t, sh, dh, walk[:0])
				ids = linked.path(src, dst, ids[:0])
				bareIDs = bare.path(src, dst, bareIDs[:0])
				if len(ids) != len(walk) || len(bareIDs) != len(walk) {
					t.Fatalf("k=%d %d→%d: %d packet hops, %d table and %d link-less directions",
						arity, src, dst, len(walk), len(ids), len(bareIDs))
				}
				for i, h := range walk {
					if got := linked.fn.HopDir(h); got != ids[i] || bareIDs[i] != ids[i] {
						t.Fatalf("k=%d %d→%d hop %d: packets cross direction %d, the table names %d, link-less %d",
							arity, src, dst, i, got, ids[i], bareIDs[i])
					}
					linkCap[ids[i]] = h.Link.Capacity()
				}
			}
		}
		for at, ref := range bare.tab {
			if ref == 0 {
				continue // a core descends only to the pods of its member index
			}
			if c := bare.caps[at/bare.hosts]; c != linkCap[ref-1] {
				t.Fatalf("k=%d: direction %d has capacity %v, its link %v", arity, ref-1, c, linkCap[ref-1])
			}
		}
	}
}

// walkRoutes follows the proactive flow tables from src to dst and
// appends each link end a packet crosses to hops.
func walkRoutes(t *testing.T, src, dst *traffic.Host, hops []traffic.Hop) []traffic.Hop {
	t.Helper()
	pkt := packet.NewUDP(src.Endpoint(1), dst.Endpoint(2), nil)
	h := hopOf(src.Ports(), traffic.HostPort)
	for {
		hops = append(hops, h)
		next := h.Link.Attached(h.End ^ 1)
		if next == netem.Receiver(dst) {
			return hops
		}
		sw, ok := next.(*switching.Switch)
		if !ok || len(hops) > 6 {
			t.Fatalf("%s→%s: the walk left the fabric at %s", src.Name(), dst.Name(), next.Name())
		}
		e := sw.Table().Lookup(0, pkt)
		if e == nil {
			t.Fatalf("%s→%s: %s has no route", src.Name(), dst.Name(), sw.Name())
		}
		h = hopOf(sw.Ports(), int(e.Actions[0].Port))
	}
}

var treeSink fatTreeDirs

// TestFluidTreeBuildAllocs pins the arity-16 direction table's build to
// its one table: 6 tiers × 1,024 entries of 4 B, plus 1 KB, in one
// object. The least of five builds, as in TestFluidFabricBuildAllocs.
func TestFluidTreeBuildAllocs(t *testing.T) {
	p := DefaultParams()
	fn := traffic.NewFluidNet(sim.NewScheduler(), traffic.FluidConfig{})
	objects, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		treeSink = newFatTreeDirs(fn, p, 16)
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	const table = fatTreeTiers * 1024 * 4
	if objects > 1 || bytes > table+1024 {
		t.Fatalf("arity-16 direction table allocated %d objects and %d B, want at most 1 and %d", objects, bytes, table+1024)
	}
}

// TestChurnBuildsNoFabric: a RunChurn at arity 16 with no arrivals
// allocates its direction table and the engine's own state, under a tenth
// of the 1.57 MB that building the arity-16 packet fabric alone took. A
// churn run that builds the fabric fails it.
func TestChurnBuildsNoFabric(t *testing.T) {
	p := DefaultParams()
	hp := DefaultHybridParams()
	hp.Arity, hp.ChurnArrivals = 16, 0
	bytes := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := RunChurn(p, hp)
		runtime.ReadMemStats(&after)
		if r.Hosts != 1024 || r.Switches != 320 {
			t.Fatalf("arity-16 churn reports %d hosts and %d switches, want 1,024 and 320", r.Hosts, r.Switches)
		}
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if bytes >= 157_000 {
		t.Fatalf("arity-16 churn with no arrivals allocated %d B, want under 157,000", bytes)
	}
}

// bulkSettleFabric routes 6 cross-pod flows per host (6,144 flows, the
// hybrid workload's pattern) over the arity-16 direction table the
// fluid-only runs use, starts every flow and runs the settle that admits
// them.
func bulkSettleFabric() (*sim.Scheduler, *traffic.FluidNet, []*traffic.FluidFlow) {
	const arity, perHost = 16, 6
	sched := sim.NewScheduler()
	fn := traffic.NewFluidNet(sched, traffic.FluidConfig{})
	tree := newFatTreeDirs(fn, DefaultParams(), arity)
	flows := make([]*traffic.FluidFlow, 0, tree.hosts*perHost)
	var ids []int32
	for g := 0; g < tree.hosts; g++ {
		sp, sl := g/tree.perPod, g%tree.perPod
		for k := 0; k < perHost; k++ {
			dp := (sp + 1 + k%(arity-1)) % arity
			ids = tree.path(g, dp*tree.perPod+(sl+k)%tree.perPod, ids[:0])
			f := fn.NewFlowDirs(100e6, ids)
			f.Start()
			flows = append(flows, f)
		}
	}
	sched.RunFor(fn.Epoch())
	return sched, fn, flows
}

// BenchmarkFluidBulkSettle prices a whole-fabric settle on the
// bulkSettleFabric flows: each iteration flips every flow's demand and
// then runs the one settle that re-solves them all. ns/flow is the
// settle's cost per flow. The settle allocates nothing; the epoch timer's
// first use of a scheduler bucket allocates 24 B, O(log t) times.
func BenchmarkFluidBulkSettle(b *testing.B) {
	sched, fn, flows := bulkSettleFabric()
	epoch := fn.Epoch()
	settles := fn.Settles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		demand := 101e6 - float64(i%2)*1e6
		for _, f := range flows {
			f.SetDemand(demand)
		}
		sched.RunFor(epoch)
	}
	b.StopTimer()
	if got := fn.Settles() - settles; got != uint64(b.N) {
		b.Fatalf("%d settles over %d iterations", got, b.N)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(flows)), "ns/flow")
}

// BenchmarkFluidTeardown prices the settle after every flow of the
// bulkSettleFabric has stopped, the last settle of a hybrid run. Each
// iteration stops every flow and times that settle, then restarts every
// flow and settles again, untimed. ns/flow is the teardown settle's cost
// per flow; it allocates nothing.
func BenchmarkFluidTeardown(b *testing.B) {
	sched, fn, flows := bulkSettleFabric()
	epoch := fn.Epoch()
	settles := fn.Settles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, f := range flows {
			f.Stop()
		}
		b.StartTimer()
		sched.RunFor(epoch)
		b.StopTimer()
		for _, f := range flows {
			f.Start()
		}
		sched.RunFor(epoch)
		b.StartTimer()
	}
	b.StopTimer()
	if got := fn.Settles() - settles; got != uint64(2*b.N) {
		b.Fatalf("%d settles over %d iterations", got, b.N)
	}
	if fn.Flows() != len(flows) {
		b.Fatalf("%d of %d flows listed after the restart", fn.Flows(), len(flows))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(flows)), "ns/flow")
}

// BenchmarkFluidGrowSettle prices the settle that only starts flows, the
// second start settle of a hybrid run, on the bulkSettleFabric flows.
// Each iteration stops every flow and settles, starts three flows in
// four and settles, all untimed; then it starts the fourth and times the
// settle that admits them into the component the others compiled.
// ns/flow is that settle's cost per flow of the fabric; it allocates
// nothing.
func BenchmarkFluidGrowSettle(b *testing.B) {
	sched, fn, flows := bulkSettleFabric()
	epoch := fn.Epoch()
	settles := fn.Settles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, f := range flows {
			f.Stop()
		}
		sched.RunFor(epoch)
		for k, f := range flows {
			if k%4 != 3 {
				f.Start()
			}
		}
		sched.RunFor(epoch)
		for k := 3; k < len(flows); k += 4 {
			flows[k].Start()
		}
		b.StartTimer()
		sched.RunFor(epoch)
	}
	b.StopTimer()
	if got := fn.Settles() - settles; got != uint64(3*b.N) {
		b.Fatalf("%d settles over %d iterations", got, b.N)
	}
	if fn.Flows() != len(flows) {
		b.Fatalf("%d of %d flows listed", fn.Flows(), len(flows))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(flows)), "ns/flow")
}
