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
//   - publication: each direction's record carries the summed rates.
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
		sl, rate := fn.slots.at(s), fn.accts.at(s).rate
		if !sl.active {
			if rate != 0 {
				t.Fatalf("certificate: stopped flow in slot %d holds rate %v", s, rate)
			}
			continue
		}
		if rate < 0 || rate > sl.demand*(1+tol) {
			t.Fatalf("certificate: flow in slot %d rate %v outside [0, demand %v]", s, rate, sl.demand)
		}
		for _, h := range fn.flowHops(s) {
			sum[h.dir] += rate
			top[h.dir] = max(top[h.dir], rate)
		}
	}
	for id := int32(0); id < fn.dirs.n; id++ {
		d := fn.dirs.at(id)
		if d.cap > 0 && sum[id] > d.cap*(1+tol) {
			t.Fatalf("certificate: direction %d carries %v over capacity %v", id, sum[id], d.cap)
		}
		if load := d.load; load < sum[id]*(1-satTol) || load > sum[id]*(1+satTol) {
			t.Fatalf("certificate: direction %d load %v, flows sum to %v", id, load, sum[id])
		}
	}
	for _, s := range fn.flows {
		sl, rate := fn.slots.at(s), fn.accts.at(s).rate
		if !sl.active || rate >= sl.demand*(1-tol) {
			continue
		}
		bottleneck := false
		for _, h := range fn.flowHops(s) {
			d := fn.dirs.at(h.dir)
			if d.cap > 0 && sum[h.dir] >= d.cap*(1-satTol) && top[h.dir] <= rate*(1+tol) {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			t.Fatalf("certificate: flow in slot %d at %v of demand %v has no bottleneck direction", s, rate, sl.demand)
		}
	}
}

// unretired reports whether the flow in slot s is Release'd and awaits
// the settle that retires it: a list or a dirty seed still holds it. A
// retired flow sits in the free list, released and in neither.
func unretired(fn *FluidNet, s int32) bool {
	sl := fn.slots.at(s)
	return fn.accts.at(s).released && (sl.listed || sl.dirtyMk)
}

// recycled reports whether the flow in slot s is retired: in the free
// list until a NewFlow reuses it.
func recycled(fn *FluidNet, s int32) bool {
	return fn.accts.at(s).released && !unretired(fn, s)
}

// checkCounters recomputes from the slots the two counts that choose
// between the settle's sweep and its walk: flows between Start and Stop,
// and Release'd flows not yet retired. It holds between settles too.
func checkCounters(t testing.TB, fn *FluidNet) {
	t.Helper()
	active, pending := 0, 0
	for s := int32(0); s < fn.slots.n; s++ {
		if fn.slots.at(s).active {
			active++
		}
		if unretired(fn, s) {
			pending++
		}
	}
	if active != fn.active || pending != fn.unretired {
		t.Fatalf("counters: %d active, %d unretired; the slots hold %d and %d",
			fn.active, fn.unretired, active, pending)
	}
}

// checkFreeDirs checks the direction free list after a settle: it holds
// exactly the free records, each once; a free direction has no registered
// flow, no occurrence and no load; a held direction's owner holds its
// id+1; and no registered flow's hop names a free id.
func checkFreeDirs(t testing.TB, fn *FluidNet) {
	t.Helper()
	if len(fn.emptied) != 0 {
		t.Fatalf("free list: %d emptied directions left unfreed after the settle", len(fn.emptied))
	}
	onList := make([]bool, fn.dirs.n)
	for _, id := range fn.freeDirs {
		if onList[id] {
			t.Fatalf("free list: direction %d is on it twice", id)
		}
		onList[id] = true
	}
	for id := int32(0); id < fn.dirs.n; id++ {
		d := fn.dirs.at(id)
		switch free := d.owner == nil; {
		case free != onList[id]:
			t.Fatalf("free list: direction %d is free %v, listed %v", id, free, onList[id])
		case free && (d.registered != 0 || len(d.flows) != 0 || d.load != 0):
			t.Fatalf("free list: free direction %d has %d registered, %d occurrences, load %v", id, d.registered, len(d.flows), d.load)
		case d.owner != nil && *d.owner != id+1:
			t.Fatalf("free list: direction %d's owner holds %d", id, *d.owner)
		}
	}
	for s := int32(0); s < fn.slots.n; s++ {
		if recycled(fn, s) {
			continue
		}
		for _, h := range fn.flowHops(s) {
			if onList[h.dir] {
				t.Fatalf("free list: flow in slot %d crosses free direction %d", s, h.dir)
			}
		}
	}
}

// certifyEverySettle runs checkMaxMin, checkCounters and checkFreeDirs
// after every settle of every FluidNet until the test ends, and returns
// the count of settles it certified.
func certifyEverySettle(t testing.TB) *int {
	n := new(int)
	settleHook = func(fn *FluidNet) {
		checkMaxMin(t, fn)
		checkCounters(t, fn)
		checkFreeDirs(t, fn)
		*n++
	}
	t.Cleanup(func() { settleHook = nil })
	return n
}
