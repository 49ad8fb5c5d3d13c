package traffic

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// teardownOutcome is what the last settle of a teardown leaves behind,
// as bit patterns: every flow's rate and delivered bits, the retired
// total, the load on both directions of every link, and the settle count.
// solved is that settle's ComponentsSolved delta.
type teardownOutcome struct {
	sig    []uint64
	solved uint64
}

// runTeardown replays a randomized script, adds idle flows that never
// start, starts every script flow and settles; then it stops every flow
// and settles once more. Variant "release" releases one active flow
// instead of stopping it, so a flow awaits retirement; "dirty" also seeds
// a direction, as the reference oracle does. walk runs that last settle
// alone under the reference oracle (see fullResettle): a twin under the
// oracle from the start would accrue delivered bits over other segments
// and round them differently, so only the last settle may differ between
// the two runs.
func runTeardown(t *testing.T, ops []fluidOp, caps []float64, nf int, variant string, walk bool) teardownOutcome {
	t.Helper()
	sched, links := fluidRig(t, caps)
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond})
	_, flows := runFluidScriptOn(sched, fn, links, ops, nf, scriptLen(ops))
	for i := 0; i < nf; i++ {
		fn.NewFlow(1e6, []Hop{{Link: links[i%len(links)], End: 0}})
	}
	for _, f := range flows {
		f.Start()
	}
	sched.RunFor(fn.Epoch())

	if walk {
		fullResettle(t, fn)
	}
	released := variant != "release"
	for _, f := range flows {
		if !released && f.Active() {
			f.Release()
			released = true
		}
		f.Stop()
	}
	if !released {
		t.Fatal("no active flow to release")
	}
	if variant == "dirty" {
		fn.dirtyDir(*fn.hopDirs[Hop{Link: links[0]}] - 1) // the idle flows hold it
	}
	solved := fn.ComponentsSolved()
	sched.RunFor(fn.Epoch())
	if fn.Flows() != 0 {
		t.Fatalf("%d flows still listed after the teardown settle", fn.Flows())
	}
	for s := int32(0); s < fn.slots.n; s++ {
		if sl := fn.slots.at(s); sl.listed || sl.dirtyMk {
			t.Fatalf("slot %d still flagged listed=%v dirty=%v after the teardown settle", s, sl.listed, sl.dirtyMk)
		}
	}
	for id := int32(0); id < fn.dirs.n; id++ {
		if n := len(fn.dirs.at(id).flows); n != 0 {
			t.Fatalf("direction %d keeps %d occurrences after the teardown settle", id, n)
		}
	}

	var out teardownOutcome
	for _, f := range flows {
		out.sig = append(out.sig, math.Float64bits(f.Rate()), math.Float64bits(f.DeliveredBits()))
	}
	out.sig = append(out.sig, math.Float64bits(fn.RetiredBits()))
	for _, l := range links {
		out.sig = append(out.sig, math.Float64bits(loadOf(fn, l, 0)), math.Float64bits(loadOf(fn, l, 1)))
	}
	out.sig = append(out.sig, fn.Settles())
	out.solved = fn.ComponentsSolved() - solved
	return out
}

// TestFluidSweepMatchesWalk pins the settle's base case to the walk it
// replaces. After the randomized scripts of the incremental-vs-full test,
// every flow stops; the settle that follows must leave the same rates,
// delivered bits, retired total, link loads and settle count, bit for
// bit, as the reference oracle's walk of the same state. It sweeps only when no
// Release'd flow awaits retirement and no direction is dirty; it solves
// no component then. Otherwise it walks.
func TestFluidSweepMatchesWalk(t *testing.T) {
	certified := certifyEverySettle(t)
	caps := []float64{7e6, 11e6, 5e6, 9e6, 13e6, 6e6}
	const nf = 24
	for _, variant := range []string{"plain", "release", "dirty"} {
		for seed := int64(1); seed <= 4; seed++ {
			ops := genFluidScript(seed, 20, 4, nf)
			got := runTeardown(t, ops, caps, nf, variant, false)
			want := runTeardown(t, ops, caps, nf, variant, true)
			sameFluidSig(t, fmt.Sprintf("%s, seed %d, teardown vs walk", variant, seed), got.sig, want.sig)
			if swept := got.solved == 0; swept != (variant == "plain") {
				t.Fatalf("%s, seed %d: teardown settle solved %d components", variant, seed, got.solved)
			}
			if want.solved == 0 {
				t.Fatalf("%s, seed %d: the oracle twin solved no component", variant, seed)
			}
		}
	}
	if *certified == 0 {
		t.Fatal("the max-min certificate never ran")
	}
}
