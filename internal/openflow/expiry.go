package openflow

import (
	"math"
	"time"
)

// This file implements timer-driven flow expiry. Every installed entry
// that has a timeout owns one scheduler timer (FlowEntry.timer), armed
// when the entry is attached and stopped when it is detached, so Lookup
// does zero expiry work, removals happen at the exact virtual time the
// timeout elapses, and the scheduler's queue is the only deadline queue.
//
// Lookup refreshes an entry's idle timer by writing lastUsed only; the
// armed timer is intentionally not touched on the hot path. When the
// stale deadline fires, the callback recomputes the entry's true deadline
// and, if traffic kept it alive, re-arms it — the classic lazy-timer
// trade: at most one spurious wakeup per idle period per entry, never
// per-packet timer work.

// deadline returns the entry's next expiry instant, or ok=false when the
// entry has no timeouts.
func deadline(e *FlowEntry) (time.Duration, bool) {
	var d time.Duration
	ok := false
	if e.HardTimeout > 0 {
		d = satAdd(e.installed, e.HardTimeout)
		ok = true
	}
	if e.IdleTimeout > 0 {
		if idle := satAdd(e.lastUsed, e.IdleTimeout); !ok || idle < d {
			d = idle
		}
		ok = true
	}
	return d, ok
}

// satAdd is t + d for a positive d, saturating at the largest Duration:
// a timeout too long to represent never elapses.
func satAdd(t, d time.Duration) time.Duration {
	if t > math.MaxInt64-d {
		return math.MaxInt64
	}
	return t + d
}

// arm schedules the entry's expiry check at its current deadline (AtCall
// shape, so arming never allocates a closure). Entries without timeouts
// get no timer.
func (t *FlowTable) arm(e *FlowEntry) {
	if d, ok := deadline(e); ok {
		e.timer = t.sched.AtCall(d, flowEntryExpire, t, e, 0)
	}
}

// flowEntryExpire is the scheduler callback for one entry's deadline. An
// entry refreshed by traffic is re-armed at its new deadline; one whose
// true deadline has passed leaves the table and its FlowRemoved hook
// fires — after the table is consistent, so a controller reacting by
// installing or deleting rules is safe. detach stops the timer, so the
// callback only ever runs for an entry that is still installed; if its
// timeouts were zeroed after install, arm finds no deadline and the
// entry simply stays.
func flowEntryExpire(a0, a1 any, _ int) {
	t, e := a0.(*FlowTable), a1.(*FlowEntry)
	now := t.sched.Now()
	if d, ok := deadline(e); !ok || d > now {
		t.arm(e)
		return
	}
	t.detach(e)
	if t.OnRemoved != nil {
		t.OnRemoved(e, timeoutReason(e, now))
	}
}

// timeoutReason mirrors the old sweep's precedence: a hard timeout that
// has elapsed wins over a simultaneous idle timeout.
func timeoutReason(e *FlowEntry, now time.Duration) RemovedReason {
	if e.HardTimeout > 0 && now-e.installed >= e.HardTimeout {
		return RemovedHardTimeout
	}
	return RemovedIdleTimeout
}
