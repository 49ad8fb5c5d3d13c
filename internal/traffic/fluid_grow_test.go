package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// Round kinds of the grow script. A wave only starts flows; the others
// stop flows, so their settles walk or sweep.
const (
	roundWave       = iota // start a few stopped flows
	roundRestartAll        // stop and restart every active flow: a walk that compiles every listed flow
	roundEdit              // stop, retarget, restart or release a few
	roundStopAll           // stop every active flow: a sweep
)

// growExtra is a flow the grow script adds beside runFluidScriptOn's
// chain flows: hopless, crossing one direction twice, crossing only
// directions the chain flows never name (End 1), or joining two chain
// components.
type growExtra struct {
	path   []int // link indices; negative: link -i-1 at End 1
	demand float64
}

var growExtras = []growExtra{
	{nil, 2e6},
	{nil, 3.5e6},
	{[]int{1, 1}, 4e6},
	{[]int{3, 3, 4}, 6e6},
	{[]int{-3}, 5e6},
	{[]int{-5, -6}, 8e6},
	{[]int{-6, -5, 5}, 3e6}, // reaches a new direction and a chain one
	{[]int{0, 5}, 7e6},      // link 0 is a component of its own (see runFluidScriptOn)
}

// growScript is a randomized script for runFluidScriptOn plus the
// extras' events, built from rounds over a model of which flows are
// active. mustGrow[e] is 1 when round e's settle must grow if its wave
// can be laid out in place (see inPlace), -1 when it must walk or sweep,
// 0 when the model cannot tell (a wave after an edit round, whose walk
// may or may not have compiled every listed flow).
type growScript struct {
	ops      []fluidOp
	extra    [][]extraOp // per round
	mustGrow []int
}

type extraOp struct {
	flow int
	kind int // 0 start, 1 stop, 2 release, 3 promote, 4 demote
}

func genGrowScript(seed int64, rounds, nf int) growScript {
	rng := rand.New(rand.NewSource(seed))
	active := make([]bool, nf)
	for i := range active {
		active[i] = i%2 == 0 // runFluidScriptOn starts the even flows
	}
	eActive := make([]bool, len(growExtras))
	eGone := make([]bool, len(growExtras))
	ePromoted := make([]bool, len(growExtras))
	gs := growScript{extra: make([][]extraOp, rounds), mustGrow: make([]int, rounds)}
	known := true // the last settle left every listed flow compiled
	for e := 0; e < rounds; e++ {
		kind := roundWave
		if e > 0 {
			switch r := rng.Intn(20); {
			case r < 9:
				kind = roundWave
			case r < 12:
				kind = roundRestartAll
			case r < 17:
				kind = roundEdit
			default:
				kind = roundStopAll
			}
		}
		settles := false
		switch kind {
		case roundWave:
			for n := 1 + rng.Intn(4); n > 0; n-- {
				if i := rng.Intn(nf); !active[i] {
					active[i] = true
					gs.ops = append(gs.ops, fluidOp{epoch: e, kind: 0, tgt: i})
					settles = true
				}
			}
			if x := rng.Intn(len(growExtras)); !eActive[x] && !eGone[x] {
				eActive[x] = true
				gs.extra[e] = append(gs.extra[e], extraOp{flow: x, kind: 0})
				settles = true
			}
			// A promotion dirties nothing, so the wave still grows.
			if x := rng.Intn(len(growExtras)); eActive[x] && !ePromoted[x] {
				ePromoted[x] = true
				gs.extra[e] = append(gs.extra[e], extraOp{flow: x, kind: 3})
			}
			if e == 0 {
				settles = true // the even flows' first settle
			}
		case roundRestartAll:
			for i := range active {
				if active[i] {
					gs.ops = append(gs.ops, fluidOp{epoch: e, kind: 0, tgt: i}, fluidOp{epoch: e, kind: 0, tgt: i})
					settles = true
				}
			}
			for x := range eActive {
				if eActive[x] {
					ePromoted[x] = false // Stop demotes
					gs.extra[e] = append(gs.extra[e], extraOp{flow: x, kind: 1}, extraOp{flow: x, kind: 0})
					settles = true
				}
			}
		case roundEdit:
			for n := 1 + rng.Intn(3); n > 0; n-- {
				switch rng.Intn(5) {
				case 0:
					if i := rng.Intn(nf); active[i] {
						active[i] = false
						gs.ops = append(gs.ops, fluidOp{epoch: e, kind: 0, tgt: i})
						settles = true
					}
				case 1:
					i := rng.Intn(nf)
					gs.ops = append(gs.ops, fluidOp{epoch: e, kind: 1, tgt: i, val: float64(1+rng.Intn(20)) * 0.5e6})
					settles = settles || active[i]
				case 2:
					if i := rng.Intn(nf); active[i] {
						gs.ops = append(gs.ops, fluidOp{epoch: e, kind: 0, tgt: i}, fluidOp{epoch: e, kind: 0, tgt: i})
						settles = true
					}
				case 3:
					if x := rng.Intn(len(growExtras)); eActive[x] {
						eActive[x], eGone[x], ePromoted[x] = false, true, false // Release demotes
						gs.extra[e] = append(gs.extra[e], extraOp{flow: x, kind: 2})
						settles = true
					}
				case 4:
					if x := rng.Intn(len(growExtras)); ePromoted[x] {
						ePromoted[x] = false
						gs.extra[e] = append(gs.extra[e], extraOp{flow: x, kind: 4})
					}
				}
			}
		case roundStopAll:
			for i := range active {
				if active[i] {
					active[i] = false
					gs.ops = append(gs.ops, fluidOp{epoch: e, kind: 0, tgt: i})
					settles = true
				}
			}
			for x := range eActive {
				if eActive[x] {
					eActive[x], ePromoted[x] = false, false // Stop demotes
					gs.extra[e] = append(gs.extra[e], extraOp{flow: x, kind: 1})
					settles = true
				}
			}
		}
		if !settles {
			continue
		}
		switch {
		case kind != roundWave:
			gs.mustGrow[e] = -1
			known = kind != roundEdit
		case known:
			gs.mustGrow[e] = 1
		}
	}
	return gs
}

// growOutcome is what a run of the grow script leaves: runFluidScriptOn's
// per-epoch rates and loads, every flow's delivered bits, the retired
// total, the settle and solve counts, which settles grew, which pending
// waves inPlace judged growable, and how many promotions ran.
type growOutcome struct {
	sig, bits       []uint64
	settles, solved uint64
	grew, inPlace   map[time.Duration]bool
	unreached       int // grow settles that carried a kept component over
	promotions      int
	delivered       float64
}

// runGrowScript replays gs over a fresh chain. mode "grow" is the
// allocator as shipped; "walk" clears kept before every settle, so each
// one walks; "full" is the reference oracle (see fullResettle).
func runGrowScript(t *testing.T, gs growScript, caps []float64, nf int, mode string, workers int) growOutcome {
	t.Helper()
	sched, links := fluidRig(t, caps)
	out := growOutcome{grew: map[time.Duration]bool{}, inPlace: map[time.Duration]bool{}}
	fn := NewFluidNet(sched, FluidConfig{Epoch: 10 * time.Millisecond, SettleWorkers: workers})
	if mode == "full" {
		fullResettle(t, fn)
	}
	certify := settleHook
	defer func() { settleHook = certify }()
	grows := uint64(0)
	settleHook = func(n *FluidNet) {
		certify(n)
		if n != fn {
			return
		}
		checkKept(t, fn)
		grew := fn.grows > grows
		out.grew[sched.Now()] = grew
		if grew && len(fn.comps) > len(fn.groups) {
			out.unreached++
		}
		grows = fn.grows
		if mode == "walk" {
			fn.kept = false
		}
	}
	if mode == "walk" {
		fn.kept = false
	}
	extras := make([]*FluidFlow, len(growExtras))
	for x, ex := range growExtras {
		var path []Hop
		for _, l := range ex.path {
			if l < 0 {
				path = append(path, Hop{Link: links[-l-1], End: 1})
			} else {
				path = append(path, Hop{Link: links[l], End: 0})
			}
		}
		extras[x] = fn.NewFlow(ex.demand, path)
	}
	epoch := fn.Epoch()
	for e := range gs.extra {
		// Every op of round e runs at 1 ms into it; its settle ends it.
		at := time.Duration(e+1) * epoch
		sched.After(time.Duration(e)*epoch+5*time.Millisecond, func() { out.inPlace[at] = inPlace(fn) })
	}
	for e, ops := range gs.extra {
		for _, op := range ops {
			f := extras[op.flow]
			sched.After(time.Duration(e)*epoch+time.Millisecond, func() {
				switch op.kind {
				case 0:
					f.Start()
				case 1:
					f.Stop()
				case 2:
					f.Release()
				case 3:
					f.Promote(&integratingExpander{sched: sched})
					out.promotions++
				case 4:
					f.Demote()
				}
			})
		}
	}
	out.sig, _ = runFluidScriptOn(sched, fn, links, gs.ops, nf, len(gs.extra))

	for s := int32(0); s < fn.slots.n; s++ {
		if !recycled(fn, s) {
			b := fn.handles.at(s).DeliveredBits()
			out.bits = append(out.bits, math.Float64bits(b))
			out.delivered += b
		}
	}
	out.bits = append(out.bits, math.Float64bits(fn.RetiredBits()))
	out.settles, out.solved = fn.Settles(), fn.ComponentsSolved()
	if mode != "grow" && fn.grows != 0 {
		t.Fatalf("%s twin grew %d settles", mode, fn.grows)
	}
	return out
}

// TestFluidGrowMatchesFullResettle pins the grow settle to the walk it
// replaces. Randomized rounds over the chain's components — start-only
// waves that merge kept components, reach only new directions, leave a
// kept component unreached, or start hopless flows and flows crossing a
// direction twice, between rounds that stop, retarget, restart, release
// or stop everything — run three ways: as shipped, with every settle
// forced to walk, and under the reference oracle. Rates and loads at
// every epoch and the settle count must match all three bit for bit;
// delivered bits, the retired total and ComponentsSolved must match the
// walk twin bit for bit. (The oracle re-solves and re-accrues components
// no seed reached, so its solve count is larger and its rate·time
// integrals are split differently; its delivered total must agree to
// 1e-12.) Every wave after a settle that compiled every listed flow must
// grow when inPlace says it can, and walk when it cannot; no other round
// may grow. Flows are promoted, often in the round that starts them, and
// demoted throughout, so publication retargets expanders in grow and
// walk settles alike. A twin at two settle workers must match the
// shipped run's rates, loads, delivered and retired bits and counts bit
// for bit.
func TestFluidGrowMatchesFullResettle(t *testing.T) {
	certified := certifyEverySettle(t)
	caps := []float64{7e6, 11e6, 5e6, 9e6, 13e6, 6e6}
	const nf, rounds = 24, 40
	grown, unreached, fellBack, promotions := 0, 0, 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		gs := genGrowScript(seed, rounds, nf)
		got := runGrowScript(t, gs, caps, nf, "grow", 1)
		walk := runGrowScript(t, gs, caps, nf, "walk", 1)
		full := runGrowScript(t, gs, caps, nf, "full", 1)
		par := runGrowScript(t, gs, caps, nf, "grow", 2)
		what := fmt.Sprintf("seed %d", seed)

		sameFluidSig(t, what+", grow vs walk rates and loads", got.sig, walk.sig)
		sameFluidSig(t, what+", grow vs full rates and loads", got.sig, full.sig)
		sameFluidSig(t, what+", grow vs walk delivered and retired bits", got.bits, walk.bits)
		sameFluidSig(t, what+", 1 vs 2 settle workers rates and loads", par.sig, got.sig)
		sameFluidSig(t, what+", 1 vs 2 settle workers delivered and retired bits", par.bits, got.bits)
		if got.settles != walk.settles || got.settles != full.settles || got.solved != walk.solved ||
			par.settles != got.settles || par.solved != got.solved {
			t.Fatalf("%s: settles %d/%d/%d/%d, components solved %d/%d/%d (grow/walk/full/2 workers)",
				what, got.settles, walk.settles, full.settles, par.settles, got.solved, walk.solved, par.solved)
		}
		if d := math.Abs(got.delivered - full.delivered); d > 1e-12*full.delivered {
			t.Fatalf("%s: delivered %v bits, the oracle %v", what, got.delivered, full.delivered)
		}

		epoch := 10 * time.Millisecond
		stale := false // a wave walked, and may have left flows uncompiled
		for e, must := range gs.mustGrow {
			at := time.Duration(e+1) * epoch
			switch {
			case must == -1:
				stale = false
			case must == 1 && stale:
				must = 0
			}
			grew, ok := got.grew[at]
			if must != 0 && !ok {
				t.Fatalf("%s, round %d: no settle at %v", what, e, at)
			}
			want := must == 1 && got.inPlace[at]
			if must != 0 && grew != want || grew && !got.inPlace[at] {
				t.Fatalf("%s, round %d: grew %v, want %v (in place %v)", what, e, grew, want, got.inPlace[at])
			}
			if must == 1 && !grew {
				fellBack++
				stale = true
			}
			if grew {
				grown++
			}
		}
		unreached += got.unreached
		promotions += got.promotions
	}
	t.Logf("%d grow settles, %d left a kept component unreached, %d fell back to the walk, %d promotions",
		grown, unreached, fellBack, promotions)
	if grown < 30 || unreached == 0 || fellBack == 0 || promotions == 0 {
		t.Fatalf("script too tame: %d grow settles, %d left a kept component unreached, %d fell back to the walk, %d promotions",
			grown, unreached, fellBack, promotions)
	}
	if *certified == 0 {
		t.Fatal("the max-min certificate never ran")
	}
}

// checkKept fails unless a compilation kept for the next settle is what
// grow relies on: every listed flow compiled once; each component closed
// (a compiled direction's occurrences and a compiled flow's directions
// lie in its component) and connected, so exact; each direction's visit
// record owning it at its position; each hop naming its direction's
// index within the component.
func checkKept(t *testing.T, fn *FluidNet) {
	t.Helper()
	if !fn.kept {
		return
	}
	cc := &fn.cc
	compOfFlow := map[int32]int{}
	compOfDir := map[int32]int{}
	for c, comp := range fn.comps {
		for _, s := range cc.flows[comp.f0:comp.f1] {
			compOfFlow[s] = c
		}
		for i, id := range cc.dirs[comp.d0:comp.d1] {
			compOfDir[id] = c
			if v := fn.visits.at(id); v.pos != comp.d0+int32(i) || v.mark < fn.keptFrom {
				t.Fatalf("kept direction %d at %d: visit record %+v, kept from %d", id, comp.d0+int32(i), *v, fn.keptFrom)
			}
		}
	}
	compiled := 0 // after a sweep cc keeps stale records past the (empty) components
	if n := len(fn.comps); n > 0 {
		compiled = int(fn.comps[n-1].f1)
	}
	if len(compOfFlow) != len(fn.flows) || compiled != len(fn.flows) {
		t.Fatalf("kept compilation holds %d flows (%d distinct) of %d listed", compiled, len(compOfFlow), len(fn.flows))
	}
	for c, comp := range fn.comps {
		// Union the component's flows and directions over its hops; one
		// set must remain.
		parent := map[int64]int64{}
		var find func(x int64) int64
		find = func(x int64) int64 {
			if p, ok := parent[x]; ok && p != x {
				r := find(p)
				parent[x] = r
				return r
			}
			parent[x] = x
			return x
		}
		for _, id := range cc.dirs[comp.d0:comp.d1] {
			find(int64(id))
			for _, e := range fn.dirs.at(id).flows {
				if compOfFlow[e.slot] != c {
					t.Fatalf("component %d: direction %d lists flow slot %d of component %d", c, id, e.slot, compOfFlow[e.slot])
				}
			}
		}
		for k := comp.f0; k < comp.f1; k++ {
			s := cc.flows[k]
			hops := fn.flowHops(s)
			if int(cc.foff[k+1]-cc.foff[k]) != len(hops) {
				t.Fatalf("component %d: flow slot %d has %d compiled hops, %d hops", c, s, cc.foff[k+1]-cc.foff[k], len(hops))
			}
			fx := -1 - int64(s)
			find(fx)
			for j, h := range hops {
				if got := cc.dirs[comp.d0+cc.hop[cc.foff[k]+int32(j)]]; got != h.dir || compOfDir[h.dir] != c {
					t.Fatalf("component %d: flow slot %d hop %d compiled as direction %d, is %d", c, s, j, got, h.dir)
				}
				parent[find(fx)] = find(int64(h.dir))
			}
		}
		roots := map[int64]bool{}
		for x := range parent {
			roots[find(x)] = true
		}
		if len(roots) > 1 {
			t.Fatalf("component %d (%d flows, %d directions) is %d components", c, comp.f1-comp.f0, comp.d1-comp.d0, len(roots))
		}
	}
}

// inPlace reports whether the flows started since the last settle can
// grow its kept compilation in place: the kept components they reach,
// through each other and through directions no kept component owns, are
// the compilation's tail, and all join the component of the first of
// them to start. It reads the compilation and the pending starts only.
func inPlace(fn *FluidNet) bool {
	cc := &fn.cc
	owner := map[int32]int64{} // kept direction -> its component
	for c, comp := range fn.comps {
		for _, id := range cc.dirs[comp.d0:comp.d1] {
			owner[id] = int64(c)
		}
	}
	// Nodes: component c is c, a direction no kept component owns -1-id.
	node := func(id int32) int64 {
		if c, ok := owner[id]; ok {
			return c
		}
		return -1 - int64(id)
	}
	parent := map[int64]int64{}
	var find func(x int64) int64
	find = func(x int64) int64 {
		if p, ok := parent[x]; ok && p != x {
			r := find(p)
			parent[x] = r
			return r
		}
		parent[x] = x
		return x
	}
	first := int64(math.MinInt64) // the first started flow's first node; none if it has no hops
	for i, s := range fn.dirtyFlows {
		hops := fn.flowHops(s)
		for _, h := range hops {
			parent[find(node(h.dir))] = find(node(hops[0].dir))
		}
		if i == 0 && len(hops) > 0 {
			first = node(hops[0].dir)
		}
	}
	tail := true // no unreached component yet, scanning from the last
	for c := len(fn.comps) - 1; c >= 0; c-- {
		_, reached := parent[int64(c)]
		switch {
		case reached && (!tail || first == math.MinInt64 || find(int64(c)) != find(first)):
			return false
		case !reached:
			tail = false
		}
	}
	return true
}
