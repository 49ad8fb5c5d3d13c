package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"netco/internal/netem"
	"netco/internal/sim"
)

// fluidOp is one scripted allocator mutation, applied shortly after an
// epoch boundary so it lands in the following settle.
type fluidOp struct {
	epoch int // boundary index the op follows
	kind  int // 0 toggle start/stop, 1 retarget
	tgt   int // flow index
	val   float64
}

// genFluidScript produces a deterministic randomized mutation schedule
// over nf flows: every epoch toggles and retargets a few of them.
func genFluidScript(seed int64, epochs, opsPerEpoch, nf int) []fluidOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []fluidOp
	for e := 0; e < epochs; e++ {
		for o := 0; o < opsPerEpoch; o++ {
			op := fluidOp{epoch: e, kind: rng.Intn(2), tgt: rng.Intn(nf)}
			if op.kind == 1 {
				op.val = float64(rng.Intn(24)) * 0.5e6 // 0..11.5e6
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// scriptLen is the number of epochs a script spans.
func scriptLen(ops []fluidOp) int {
	n := 0
	for _, op := range ops {
		n = max(n, op.epoch+1)
	}
	return n
}

// runFluidScript replays the script against a fresh chain topology and
// returns the exact bit patterns of every flow rate and directed link
// load observed just before each epoch boundary. The chain's links are
// shared by overlapping sub-paths, so the script continually splits and
// merges allocator components. full runs every settle as the reference
// oracle (see fullResettle).
func runFluidScript(t *testing.T, ops []fluidOp, caps []float64, nf int, full bool, workers int) []uint64 {
	t.Helper()
	sched, links := fluidRig(t, caps)
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond, SettleWorkers: workers})
	if full {
		fullResettle(t, fn)
	}
	sig, _ := runFluidScriptOn(sched, fn, links, ops, nf, scriptLen(ops))
	return sig
}

// runFluidScriptOn is runFluidScript over a caller-built allocator and
// link chain, for the given number of epochs. It also returns the script's
// flows as they stand at the end: a retarget releases flow i and
// registers its path again at the new demand, started if flow i was
// active, so its handle changes.
func runFluidScriptOn(sched *sim.Scheduler, fn *FluidNet, links []*netem.Link, ops []fluidOp, nf, epochs int) ([]uint64, []*FluidFlow) {
	epoch := fn.Epoch()

	// Flow i runs the sub-chain [i%len, i%len+1+i%3] clipped to the
	// chain — short overlapping paths, many sharing each link.
	flows := make([]*FluidFlow, nf)
	paths := make([][]Hop, nf)
	for i := range flows {
		lo := i % len(links)
		hi := lo + 1 + i%3
		if hi > len(links) {
			hi = len(links)
		}
		for j := lo; j < hi; j++ {
			paths[i] = append(paths[i], Hop{Link: links[j], End: 0})
		}
		flows[i] = fn.NewFlow(float64(1+i%7)*1e6, paths[i])
		if i%2 == 0 {
			flows[i].Start()
		}
	}

	for _, op := range ops {
		at := time.Duration(op.epoch)*epoch + time.Millisecond
		sched.After(at, func() {
			f := flows[op.tgt]
			switch op.kind {
			case 0:
				if f.Active() {
					f.Stop()
				} else {
					f.Start()
				}
			case 1:
				active := f.Active()
				f.Release()
				flows[op.tgt] = fn.NewFlow(op.val, paths[op.tgt])
				if active {
					flows[op.tgt].Start()
				}
			}
		})
	}

	var sig []uint64
	for e := 1; e <= epochs+1; e++ {
		sched.After(time.Duration(e)*epoch-time.Microsecond, func() {
			for _, f := range flows {
				sig = append(sig, math.Float64bits(f.Rate()))
			}
			for _, l := range links {
				sig = append(sig, math.Float64bits(loadOf(fn, l, 0)))
			}
		})
	}
	sched.RunFor(time.Duration(epochs+2) * epoch)
	return sig, flows
}

// sameFluidSig fails the test unless two runFluidScript signatures are
// equal bit for bit.
func sameFluidSig(t *testing.T, what string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: signature lengths differ: %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: sample %d diverged: %x vs %x", what, i, got[i], want[i])
		}
	}
}

// TestFluidIncrementalMatchesFullResettle pins the dirty-set allocator
// bit for bit to the reference oracle, which re-solves every component
// at every settle, across randomized start/stop/retarget sequences. Any
// divergence — a frozen flow that should have been re-solved, a
// component the dirty seeds failed to reach — shows up as a differing
// rate or load bit pattern at some epoch boundary. Both
// share the per-component solver, so every settle is also held to the
// max-min certificate.
func TestFluidIncrementalMatchesFullResettle(t *testing.T) {
	certified := certifyEverySettle(t)
	caps := []float64{7e6, 11e6, 5e6, 9e6, 13e6, 6e6}
	const nf = 24
	for seed := int64(1); seed <= 4; seed++ {
		ops := genFluidScript(seed, 20, 4, nf)
		fullSig := runFluidScript(t, ops, caps, nf, true, 1)
		incSig := runFluidScript(t, ops, caps, nf, false, 1)
		sameFluidSig(t, fmt.Sprintf("seed %d, incremental vs full", seed), incSig, fullSig)
	}
	if *certified == 0 {
		t.Fatal("the max-min certificate never ran")
	}
}

// TestFluidParallelSettleMatchesSerial pins the parallel per-component
// settle bit-equal to serial — and, transitively through the test
// above, to the reference oracle — at every worker count, both
// incrementally and under the oracle. Fill is pure component-local arithmetic
// and discovery/publish stay serial, so nothing may diverge.
func TestFluidParallelSettleMatchesSerial(t *testing.T) {
	certified := certifyEverySettle(t)
	caps := []float64{7e6, 11e6, 5e6, 9e6, 13e6, 6e6}
	const nf = 24
	for seed := int64(1); seed <= 3; seed++ {
		ops := genFluidScript(seed, 20, 4, nf)
		for _, full := range []bool{false, true} {
			want := runFluidScript(t, ops, caps, nf, full, 1)
			for _, workers := range []int{2, 4, 8} {
				got := runFluidScript(t, ops, caps, nf, full, workers)
				sameFluidSig(t, fmt.Sprintf("seed %d full=%v, %d workers vs serial", seed, full, workers), got, want)
			}
		}
	}
	if *certified == 0 {
		t.Fatal("the max-min certificate never ran")
	}
}

// TestFluidUntouchedComponentKeepsRates checks the point of the dirty
// set: re-settling one component must not re-solve — or even visit —
// flows in a disjoint component. Their rates keep the exact bit
// patterns of the previous settle.
func TestFluidUntouchedComponentKeepsRates(t *testing.T) {
	sched, links := fluidRig(t, []float64{7e6, 9e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	// Two disjoint components: a/b on link 0, c/d on link 1.
	a := fn.NewFlow(5e6, []Hop{{Link: links[0], End: 0}})
	b := fn.NewFlow(5e6, []Hop{{Link: links[0], End: 0}})
	c := fn.NewFlow(20e6, []Hop{{Link: links[1], End: 0}})
	d := fn.NewFlow(20e6, []Hop{{Link: links[1], End: 0}})
	a.Start()
	b.Start()
	c.Start()
	d.Start()
	sched.RunFor(10 * time.Millisecond)
	aBits, bBits := math.Float64bits(a.Rate()), math.Float64bits(b.Rate())
	if a.Rate() != 3.5e6 || c.Rate() != 4.5e6 {
		t.Fatalf("initial rates: a=%v c=%v", a.Rate(), c.Rate())
	}

	// Touch only c's component.
	d.Stop()
	sched.RunFor(10 * time.Millisecond)
	if c.Rate() != 9e6 {
		t.Fatalf("c not re-solved: %v", c.Rate())
	}
	if math.Float64bits(a.Rate()) != aBits || math.Float64bits(b.Rate()) != bBits {
		t.Fatalf("disjoint component disturbed: a=%v b=%v", a.Rate(), b.Rate())
	}
}

// TestFluidSettleSteadyStateAllocs guards the steady-state settle path
// against per-epoch allocation creep: once the component scratch has
// grown to the working set, a stop or start + settle cycle must stay
// within a handful of allocations (the scheduler's timer event and
// closure — nothing proportional to flows or links). Stops settle by a
// walk, starts by a grow.
func TestFluidSettleSteadyStateAllocs(t *testing.T) {
	sched, links := fluidRig(t, []float64{9e6, 7e6, 11e6})
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	flows := make([]*FluidFlow, 64)
	for i := range flows {
		flows[i] = fn.NewFlow(float64(1+i%5)*1e6, []Hop{
			{Link: links[i%3], End: 0}, {Link: links[(i+1)%3], End: 0},
		})
		flows[i].Start()
	}
	sched.RunFor(10 * time.Millisecond) // warm the scratch
	avg := testing.AllocsPerRun(20, func() {
		if f := flows[17]; f.Active() {
			f.Stop()
		} else {
			f.Start()
		}
		sched.RunFor(10 * time.Millisecond)
	})
	if avg > 8 {
		t.Fatalf("steady-state settle allocates %.1f allocs/epoch, want <= 8", avg)
	}
}

// TestFluidSettleRangesCoverComponents: the parallel fill hands each
// worker one contiguous range of components. Over many disjoint
// components of unequal size, at worker counts below, at and above the
// component count, the cut table must tile [0, ncomps) in order and every
// component must come out solved exactly as the serial settle solves it.
func TestFluidSettleRangesCoverComponents(t *testing.T) {
	const nl = 37
	run := func(workers int) (*FluidNet, []uint64) {
		sched := sim.NewScheduler()
		links := fluidFan(sched, nl, 10e6)
		fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond, SettleWorkers: workers})
		var flows []*FluidFlow
		for i, l := range links {
			for k := 0; k <= i*i%11; k++ { // 1..11 flows share link i
				flows = append(flows, fn.NewFlow(float64(1+k)*1e6, []Hop{{Link: l, End: 0}}))
			}
		}
		for _, f := range flows {
			f.Start()
		}
		sched.RunFor(10 * time.Millisecond)
		sig := make([]uint64, len(flows))
		for i, f := range flows {
			sig[i] = math.Float64bits(f.Rate())
		}
		return fn, sig
	}
	_, want := run(1)
	for _, workers := range []int{2, 3, 7, nl, 64} {
		fn, got := run(workers)
		sameFluidSig(t, fmt.Sprintf("%d workers vs serial", workers), got, want)
		k := min(workers, nl)
		if len(fn.cuts) != k+1 || fn.cuts[0] != 0 || fn.cuts[k] != nl {
			t.Fatalf("%d workers: cut table %v, want %d ranges tiling [0, %d)", workers, fn.cuts, k, nl)
		}
		for r := 0; r < k; r++ {
			if fn.cuts[r] > fn.cuts[r+1] {
				t.Fatalf("%d workers: cut table %v not ascending", workers, fn.cuts)
			}
		}
		if k == 2 {
			// Equal shares of flows plus directions, not of components.
			if mid := fn.cuts[1]; mid == 0 || mid == nl {
				t.Fatalf("2 workers: one range got everything: %v", fn.cuts)
			}
		}
	}
}
