// Package chaos is the runtime fault-injection layer: a Plan of timed
// actions — router crash and cold restart, compare restart, link flaps,
// partition-and-heal — executed on virtual time via
// sim.Scheduler events, so every chaotic run is exactly as deterministic
// and replayable as a calm one.
//
// The layering rule that keeps chaos race-free under the partitioned
// engine (internal/sim/par) is the same thread-ownership rule the rest of
// the simulator follows: a fault toggles a node's state only from events
// on that node's own scheduler. Plan.Schedule therefore arms everything
// during single-threaded setup, before workers start, and each Target
// implementation routes its transitions to the right domain —
// netem.Link.ScheduleDown arms one event per link end on that end's
// scheduler; node targets arm crash/restart on the node's scheduler.
//
// The plan is also statically analysable: Timeline returns every
// down/up transition without running the simulation, which is what the
// harness's recovery oracle uses to know when the last heal lands.
package chaos

import (
	"fmt"
	"sort"
	"time"

	"netco/internal/netem"
	"netco/internal/sim"
)

// Target is one unit of failure the plan can take down and bring back.
// ScheduleOutage arms a single outage window at setup time; the
// transitions themselves execute later, as scheduler events in the
// target's own domain.
type Target interface {
	ScheduleOutage(failAt, recoverAt time.Duration)
}

// Action is one timed fault against a named target: down at At, up
// Down later. Cycles > 1 repeats the outage every Period — a flap.
type Action struct {
	// Target names an entry in the Registry the plan is scheduled
	// against.
	Target string
	// At is the first failure instant.
	At time.Duration
	// Down is how long each outage lasts.
	Down time.Duration
	// Cycles is the number of outages (0 and 1 both mean one).
	Cycles int
	// Period is the flap period, failure to failure. Zero defaults to
	// 2×Down (half-duty flapping).
	Period time.Duration
}

// normalized fills the defaults.
func (a Action) normalized() Action {
	if a.Cycles < 1 {
		a.Cycles = 1
	}
	if a.Period == 0 {
		a.Period = 2 * a.Down
	}
	return a
}

// Validate rejects actions that cannot be scheduled sanely.
func (a Action) Validate() error {
	if a.Target == "" {
		return fmt.Errorf("chaos: action has no target")
	}
	if a.At < 0 {
		return fmt.Errorf("chaos: %s at negative time %v", a.Target, a.At)
	}
	if a.Down <= 0 {
		return fmt.Errorf("chaos: %s outage duration %v, want > 0", a.Target, a.Down)
	}
	n := a.normalized()
	if n.Cycles > 1 && n.Period <= n.Down {
		return fmt.Errorf("chaos: %s flap period %v not longer than outage %v", a.Target, n.Period, n.Down)
	}
	return nil
}

// Plan is a deterministic chaos schedule.
type Plan struct {
	Actions []Action
}

// Validate checks every action.
func (p Plan) Validate() error {
	for _, a := range p.Actions {
		if err := a.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Transition is one down or up edge of the plan, computed statically.
type Transition struct {
	At     time.Duration
	Target string
	Down   bool
}

// Timeline expands the plan into its transitions, sorted by time (ties:
// downs before ups, then target name) — the static view oracles and
// metrics use.
func (p Plan) Timeline() []Transition {
	var out []Transition
	for _, a := range p.Actions {
		n := a.normalized()
		for c := 0; c < n.Cycles; c++ {
			base := n.At + time.Duration(c)*n.Period
			out = append(out, Transition{At: base, Target: n.Target, Down: true})
			out = append(out, Transition{At: base + n.Down, Target: n.Target, Down: false})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Down != out[j].Down {
			return out[i].Down
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// LastRecovery returns the instant the final outage heals (zero for an
// empty plan) — the point after which the recovery oracle may probe.
func (p Plan) LastRecovery() time.Duration {
	var last time.Duration
	for _, tr := range p.Timeline() {
		if !tr.Down && tr.At > last {
			last = tr.At
		}
	}
	return last
}

// Registry maps action target names to their implementations.
type Registry map[string]Target

// Schedule validates the plan and arms every outage against reg. Call
// during single-threaded setup, before simulation workers start.
func (p Plan) Schedule(reg Registry) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, a := range p.Actions {
		tgt, ok := reg[a.Target]
		if !ok {
			return fmt.Errorf("chaos: unknown target %q", a.Target)
		}
		n := a.normalized()
		for c := 0; c < n.Cycles; c++ {
			base := n.At + time.Duration(c)*n.Period
			tgt.ScheduleOutage(base, base+n.Down)
		}
	}
	return nil
}

// NodeTarget adapts a crash/restart callback pair into a Target, arming
// both transitions on the node's own scheduler. It covers switch crashes
// and compare restarts alike.
func NodeTarget(sched *sim.Scheduler, fail, recover func()) Target {
	return nodeTarget{sched: sched, fail: fail, recover: recover}
}

type nodeTarget struct {
	sched         *sim.Scheduler
	fail, recover func()
}

func (t nodeTarget) ScheduleOutage(failAt, recoverAt time.Duration) {
	t.sched.At(failAt, t.fail)
	t.sched.At(recoverAt, t.recover)
}

// LinkTarget makes a link a Target: outages become timed administrative
// down/up events on both end schedulers (netem.Link.ScheduleDown), the
// race-free toggle path.
func LinkTarget(l *netem.Link) Target { return linkTarget{l} }

type linkTarget struct{ l *netem.Link }

func (t linkTarget) ScheduleOutage(failAt, recoverAt time.Duration) {
	t.l.ScheduleDown(failAt, true)
	t.l.ScheduleDown(recoverAt, false)
}
