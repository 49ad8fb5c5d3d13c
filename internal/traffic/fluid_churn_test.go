package traffic

import (
	"testing"
	"time"

	"netco/internal/sim"
)

// TestFluidFlowRecycle pins the Release lifecycle: a released flow is
// recycled exactly once its final settle has delisted it, its
// delivered bits fold into RetiredBits, and the next NewFlow reuses
// the object (pointer identity) reset to the new flow's state.
func TestFluidFlowRecycle(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6, 10e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	hops := []Hop{{Link: links[0], End: 0}}

	a := fn.NewFlow(4e6, hops)
	a.Start()
	sched.RunFor(30 * time.Millisecond) // settle at 10ms, then 20ms of accrual
	delivered := a.DeliveredBits()
	if delivered <= 0 {
		t.Fatalf("no bits accrued before release: %v", delivered)
	}

	a.Release() // active: stops, recycles at the next settle
	if fn.Recycled() != 0 || fn.RetiredBits() != 0 {
		t.Fatalf("recycled before the delisting settle: recycled=%d retired=%v",
			fn.Recycled(), fn.RetiredBits())
	}
	sched.RunFor(10 * time.Millisecond) // the delisting settle
	if fn.Flows() != 0 {
		t.Fatalf("flow still listed after release settle: %d", fn.Flows())
	}
	if got := fn.RetiredBits(); got != delivered {
		t.Fatalf("RetiredBits = %v, want %v", got, delivered)
	}

	b := fn.NewFlow(2e6, []Hop{{Link: links[1], End: 0}})
	if b != a {
		t.Fatal("NewFlow did not reuse the released object")
	}
	if fn.Recycled() != 1 {
		t.Fatalf("Recycled() = %d, want 1", fn.Recycled())
	}
	if a := b.acct(); b.Rate() != 0 || b.Active() || a.promoted || a.released || b.state().demand != 2e6 || b.DeliveredBits() != 0 {
		t.Fatalf("recycled flow not reset: rate=%v active=%v promoted=%v released=%v demand=%v",
			b.Rate(), b.Active(), a.promoted, a.released, b.state().demand)
	}
	b.Start()
	sched.RunFor(10 * time.Millisecond)
	if b.Rate() != 2e6 {
		t.Fatalf("recycled flow rate = %v, want 2e6", b.Rate())
	}

	// A never-listed flow recycles immediately.
	c := fn.NewFlow(1e6, hops)
	c.Release()
	if fn.NewFlow(1e6, hops) != c {
		t.Fatal("never-listed release did not recycle immediately")
	}

	// Release is idempotent.
	b.Release()
	b.Release()
	sched.RunFor(10 * time.Millisecond)
	if fn.Recycled() != 2 {
		t.Fatalf("Recycled() = %d after idempotent release, want 2", fn.Recycled())
	}
}

// TestFluidReleaseContract pins what Release promises whichever way a
// flow reaches the free list (active, stopped but still listed, never
// listed): a released flow stays retired, a second Release counting
// nothing, until NewFlow hands the object out again; and a listed flow's
// delivered bits fold into RetiredBits at the settle that delists it, not
// before.
func TestFluidReleaseContract(t *testing.T) {
	sched, links := fluidRig(t, []float64{10e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	hops := []Hop{{Link: links[0], End: 0}}
	active, stopped, idle := fn.NewFlow(4e6, hops), fn.NewFlow(2e6, hops), fn.NewFlow(1e6, hops)
	active.Start()
	stopped.Start()
	sched.RunFor(30 * time.Millisecond) // settle at 10 ms, then 20 ms of accrual
	stopped.Stop()
	want := active.DeliveredBits() + stopped.DeliveredBits()
	if want <= 0 {
		t.Fatal("no bits accrued before release")
	}
	for _, f := range []*FluidFlow{active, stopped, idle} {
		if f.acct().released {
			t.Fatal("flow reads released before Release")
		}
		f.Release()
		f.Release()
		if !f.acct().released || f.Active() {
			t.Fatalf("released flow: released %v, active %v; want true, false", f.acct().released, f.Active())
		}
	}
	if fn.RetiredBits() != 0 || fn.unretired != 2 || fn.Flows() != 2 {
		t.Fatalf("before the final settle: retired %v bits, %d unretired, %d listed; want 0, 2, 2",
			fn.RetiredBits(), fn.unretired, fn.Flows())
	}
	sched.RunFor(10 * time.Millisecond) // the final settle
	if got := fn.RetiredBits(); got != want || fn.unretired != 0 || fn.Flows() != 0 {
		t.Fatalf("after the final settle: retired %v bits, want %v; %d unretired, %d listed", got, want, fn.unretired, fn.Flows())
	}
	for range 3 {
		if f := fn.NewFlow(1e6, hops); f.acct().released || f != active && f != stopped && f != idle {
			t.Fatalf("NewFlow after the final settle: released %v, recycled %v", f.acct().released, f == active || f == stopped || f == idle)
		}
	}
}

// TestFluidChurnConservesBits checks whole-run accounting across heavy
// recycling: total delivered traffic (retired + live) equals rate ×
// time integrated over the schedule, so recycling loses no bits.
func TestFluidChurnConservesBits(t *testing.T) {
	sched, links := fluidRig(t, []float64{50e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	hops := []Hop{{Link: links[0], End: 0}}
	// 5 generations of 4 flows at 1e6 bps on an uncongested link.
	// Generation g starts at 30g ms (allocated at the 30g+10 boundary),
	// releases at 30g+15 ms, and is delisted + recycled at the 30g+20
	// boundary — comfortably before generation g+1's NewFlow at
	// 30(g+1), so every later generation draws from the free list.
	for g := 0; g < 5; g++ {
		base := time.Duration(g) * 30 * time.Millisecond
		var flows [4]*FluidFlow
		sched.After(base, func() {
			for i := range flows {
				flows[i] = fn.NewFlow(1e6, hops)
				flows[i].Start()
			}
		})
		sched.After(base+15*time.Millisecond, func() {
			for i := range flows {
				flows[i].Release()
			}
		})
	}
	sched.RunFor(200 * time.Millisecond)
	// Each flow carries 1e6 bps from its first settle (30g+10) to its
	// Stop accrual instant (30g+15): 5 ms → 5_000 bits, 20 flows.
	want := 20 * 5_000.0
	if got := fn.RetiredBits(); got != want {
		t.Fatalf("RetiredBits = %v, want %v", got, want)
	}
	if fn.Recycled() != 16 {
		// 20 flows; only generation 0 allocates fresh objects.
		t.Fatalf("Recycled() = %d, want 16", fn.Recycled())
	}
}

// TestFluidChurnSteadyStateAllocs is the churn-lifecycle allocation
// guard: once the arena and scratch are warm, a full churn epoch —
// release a batch, create + start a same-shaped batch, settle — allocates
// no flow objects, and over link-less directions creates no direction
// either (the free list serves them); the whole cycle stays within the
// settle path's existing ≤8 allocs/epoch envelope.
func TestFluidChurnSteadyStateAllocs(t *testing.T) {
	t.Run("links", func(t *testing.T) {
		sched, links := fluidRig(t, []float64{9e6, 7e6, 11e6})
		fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
		const n = 64
		flows := make([]*FluidFlow, n)
		hops := make([]Hop, 2)
		mk := func(i int) *FluidFlow {
			hops[0] = Hop{Link: links[i%3], End: 0}
			hops[1] = Hop{Link: links[(i+1)%3], End: 0}
			f := fn.NewFlow(float64(1+i%5)*1e6, hops)
			f.Start()
			return f
		}
		for i := range flows {
			flows[i] = mk(i)
		}
		sched.RunFor(10 * time.Millisecond)
		// Churn a few generations to fill the free list and warm scratch.
		for g := 0; g < 3; g++ {
			for i := 0; i < n; i += 2 {
				flows[i].Release()
				flows[i] = mk(i)
			}
			sched.RunFor(10 * time.Millisecond)
		}
		avg := testing.AllocsPerRun(20, func() {
			for i := 0; i < n; i += 2 {
				flows[i].Release()
				flows[i] = mk(i)
			}
			sched.RunFor(10 * time.Millisecond)
		})
		if avg > 8 {
			t.Fatalf("steady-state churn epoch allocates %.1f allocs, want <= 8", avg)
		}
	})
	t.Run("link-less", func(t *testing.T) {
		fn, epoch := linklessChurn(64)
		for g := 0; g < 4; g++ {
			epoch()
		}
		held, reused := fn.dirs.n, fn.reusedDirs
		if avg := testing.AllocsPerRun(20, epoch); avg > 8 {
			t.Fatalf("steady-state churn epoch allocates %.1f allocs, want <= 8", avg)
		}
		if fn.dirs.n != held || fn.reusedDirs == reused {
			t.Fatalf("directions held %d -> %d, %d reused since warm-up: want none created and some reused",
				held, fn.dirs.n, fn.reusedDirs-reused)
		}
	})
}

// linklessChurn is a churn rig over link-less directions held in two
// banks of n owner entries: flow i crosses entries i and i+1 of a bank,
// in a ring. Every epoch releases every flow, starts n flows over the
// other bank and settles. That bank's flows retired at the last settle,
// which emptied and freed its directions, so each epoch takes its
// directions from the free list. A reused record keeps its occurrence
// array, and every direction here carries two flows, so any record's
// array fits whichever direction reuses it.
func linklessChurn(n int) (*FluidNet, func()) {
	sched := sim.NewScheduler()
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	banks := [2][]int32{make([]int32, n), make([]int32, n)}
	caps := [3]float64{9e6, 7e6, 11e6}
	flows := make([]*FluidFlow, n)
	ids := make([]int32, 2)
	dir := func(owner *int32, bps float64) int32 {
		if *owner == 0 {
			fn.NewDir(bps, owner)
		}
		return *owner - 1
	}
	gen := 0
	return fn, func() {
		bank := banks[gen%2]
		for i := range flows {
			if flows[i] != nil {
				flows[i].Release()
			}
			ids[0], ids[1] = dir(&bank[i], caps[i%3]), dir(&bank[(i+1)%n], caps[(i+1)%3])
			flows[i] = fn.NewFlowDirs(float64(1+i%5)*1e6, ids)
			flows[i].Start()
		}
		gen++
		sched.RunFor(10 * time.Millisecond)
	}
}

// BenchmarkFluidChurnEpoch measures one steady-state churn epoch: on a
// shared-chain topology, release and respawn half the flows, then
// settle; over link-less directions, release and respawn every flow over
// directions the free list serves. Runs under bench-guard's -benchmem
// leg as the allocation canary for the churn hot path.
func BenchmarkFluidChurnEpoch(b *testing.B) {
	b.Run("links", func(b *testing.B) {
		sched, links := fluidRig(b, []float64{9e6, 7e6, 11e6, 13e6})
		fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
		const n = 512
		flows := make([]*FluidFlow, n)
		hops := make([]Hop, 2)
		mk := func(i int) *FluidFlow {
			hops[0] = Hop{Link: links[i%4], End: 0}
			hops[1] = Hop{Link: links[(i+1)%4], End: 0}
			f := fn.NewFlow(float64(1+i%5)*1e6, hops)
			f.Start()
			return f
		}
		for i := range flows {
			flows[i] = mk(i)
		}
		sched.RunFor(20 * time.Millisecond)
		b.ReportAllocs()
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			for i := 0; i < n; i += 2 {
				flows[i].Release()
				flows[i] = mk(i)
			}
			sched.RunFor(10 * time.Millisecond)
		}
	})
	b.Run("link-less", func(b *testing.B) {
		_, epoch := linklessChurn(512)
		epoch()
		epoch()
		b.ReportAllocs()
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			epoch()
		}
	})
}
