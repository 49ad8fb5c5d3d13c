package experiment

import (
	"math"
	"runtime"
	"testing"

	"netco/internal/netem"
	"netco/internal/sim"
	"netco/internal/traffic"
)

// BenchmarkFluidFabricBuild prices the fat-tree fabric the hybrid, churn
// and scale engines build, at arity 16: 1,024 hosts and 3,072 links. Its
// B/op and allocs/op are what a change to the link or host layout moves;
// at arity 60 the same fabric is 54,000 hosts and 162,000 links.
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

// bulkSettleFabric builds the arity-16 fabric with 6 cross-pod flows per
// host (6,144 flows, the hybrid workload's pattern), starts every flow
// and runs the settle that admits them.
func bulkSettleFabric() (*sim.Scheduler, *traffic.FluidNet, []*traffic.FluidFlow) {
	const arity, perHost = 16, 6
	sched := sim.NewScheduler()
	fb := buildFluidFabric(netem.New(sched), DefaultParams(), arity)
	fn := traffic.NewFluidNet(sched, traffic.FluidConfig{})
	flows := make([]*traffic.FluidFlow, 0, len(fb.hosts)*perHost)
	var hops []traffic.Hop
	for g := range fb.hosts {
		sp, sl := g/fb.perPod, g%fb.perPod
		for k := 0; k < perHost; k++ {
			dp := (sp + 1 + k%(arity-1)) % arity
			hops = fb.pathFor(g, dp*fb.perPod+(sl+k)%fb.perPod, hops[:0])
			f := fn.NewFlow(100e6, hops)
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
