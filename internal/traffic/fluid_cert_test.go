package traffic

import (
	"testing"
)

// checkMaxMin certifies the allocation a settle left behind without
// re-running progressive filling, so it shares no code with the solver
// it checks. Over every listed flow and the directions it crosses:
//
//   - feasibility: each direction's summed rates stay within its
//     capacity, and each rate within [0, demand];
//   - max-min optimality: every active flow either meets its demand or
//     crosses a saturated direction on which no flow has a higher rate
//     (the bottleneck condition of Bertsekas and Gallager, §6.5);
//   - publication: each direction's link carries the summed rates.
//
// The cost is O(flows × hops).
func checkMaxMin(t testing.TB, fn *FluidNet) {
	t.Helper()
	const (
		tol    = 1e-9 // feasibility and rate ties
		satTol = 1e-7 // saturation: the solver's load sums per round, the certificate per flow
	)
	sum := make([]float64, fn.dirs.n)
	top := make([]float64, fn.dirs.n)
	for _, s := range fn.flows {
		sl := fn.slots.at(s)
		if !sl.active {
			if sl.rate != 0 {
				t.Fatalf("certificate: stopped flow %d holds rate %v", (*fn.handles.at(s)).id, sl.rate)
			}
			continue
		}
		if sl.rate < 0 || sl.rate > sl.demand*(1+tol) {
			t.Fatalf("certificate: flow %d rate %v outside [0, demand %v]", (*fn.handles.at(s)).id, sl.rate, sl.demand)
		}
		for _, h := range fn.flowHops(s) {
			sum[h.dir] += sl.rate
			top[h.dir] = max(top[h.dir], sl.rate)
		}
	}
	for id := int32(0); id < fn.dirs.n; id++ {
		d := fn.dirs.at(id)
		if d.cap > 0 && sum[id] > d.cap*(1+tol) {
			t.Fatalf("certificate: direction %d carries %v over capacity %v", id, sum[id], d.cap)
		}
		if load := d.link.FluidLoad(int(d.end)); load < sum[id]*(1-satTol) || load > sum[id]*(1+satTol) {
			t.Fatalf("certificate: direction %d link load %v, flows sum to %v", id, load, sum[id])
		}
	}
	for _, s := range fn.flows {
		sl := fn.slots.at(s)
		if !sl.active || sl.rate >= sl.demand*(1-tol) {
			continue
		}
		bottleneck := false
		for _, h := range fn.flowHops(s) {
			d := fn.dirs.at(h.dir)
			if d.cap > 0 && sum[h.dir] >= d.cap*(1-satTol) && top[h.dir] <= sl.rate*(1+tol) {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			t.Fatalf("certificate: flow %d at %v of demand %v has no bottleneck direction", (*fn.handles.at(s)).id, sl.rate, sl.demand)
		}
	}
}

// checkCounters recomputes from the slots the two counts that choose
// between the settle's sweep and its walk: flows between Start and Stop,
// and Release'd flows not yet retired (a retired flow sits in the free
// list with id -1).
func checkCounters(t testing.TB, fn *FluidNet) {
	t.Helper()
	active, unretired := 0, 0
	for s := int32(0); s < fn.slots.n; s++ {
		sl := fn.slots.at(s)
		if sl.active {
			active++
		}
		if sl.released && (*fn.handles.at(s)).id >= 0 {
			unretired++
		}
	}
	if active != fn.active || unretired != fn.unretired {
		t.Fatalf("counters: %d active, %d unretired; the slots hold %d and %d",
			fn.active, fn.unretired, active, unretired)
	}
}

// certifyEverySettle runs checkMaxMin and checkCounters after every
// settle of every FluidNet until the test ends, and returns the count of
// settles it certified.
func certifyEverySettle(t testing.TB) *int {
	n := new(int)
	settleHook = func(fn *FluidNet) {
		checkMaxMin(t, fn)
		checkCounters(t, fn)
		*n++
	}
	t.Cleanup(func() { settleHook = nil })
	return n
}
