package traffic

import "testing"

// dirtyDir queues direction id as a settle seed (once per settle). Only
// the reference oracle seeds directions: a dirty one keeps the settle off
// the sweep and the grow.
func (fn *FluidNet) dirtyDir(id int32) {
	if d := fn.dirs.at(id); !d.dirty {
		d.dirty = true
		fn.dirtyDirs = append(fn.dirtyDirs, id)
	}
}

// fullResettle makes every later settle of fn the reference oracle the
// incremental settle is tested against. Before each settle it seeds every
// listed flow and every direction dirty, so the walk re-solves every
// component from scratch with the same per-component solver; a dirty
// direction already keeps the settle off the sweep and the grow. The
// seeds events queued stay first, in event order, so the components
// holding them are found in the order the incremental walk finds them,
// and flows retire in the same order. Then come the listed flows in list
// order and the directions in id order, which is not creation order once
// ids are reused; every direction no listed flow reached by then is an
// empty component of its own, free ones included, so their order moves
// no rate. After each settle it fails t
// unless the walk visited every listed flow and every direction: an
// oracle that degraded to the incremental walk would otherwise pass
// unnoticed. Call it before fn arms its first settle.
func fullResettle(t testing.TB, fn *FluidNet) {
	if fn.armed {
		t.Fatal("fullResettle: a settle is already armed")
	}
	epoch := fn.onEpochFn
	fn.onEpochFn = func() {
		if !fn.dirty {
			epoch()
			return
		}
		for _, s := range fn.flows {
			fn.dirtyFlow(s)
		}
		for id := int32(0); id < fn.dirs.n; id++ {
			fn.dirtyDir(id)
		}
		epoch()
		for _, s := range fn.flows {
			if m := fn.slots.at(s).mark; m != fn.gen {
				t.Fatalf("oracle settle %d left listed slot %d unvisited (mark %d, gen %d)", fn.settles, s, m, fn.gen)
			}
		}
		for id := int32(0); id < fn.dirs.n; id++ {
			if m := fn.visits.at(id).mark; m != fn.gen {
				t.Fatalf("oracle settle %d left direction %d unvisited (mark %d, gen %d)", fn.settles, id, m, fn.gen)
			}
		}
	}
}
