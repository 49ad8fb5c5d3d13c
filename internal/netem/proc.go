package netem

import (
	"time"

	"netco/internal/sim"
)

// ProcStats counts work handled by a Proc.
type ProcStats struct {
	Processed uint64
	Dropped   uint64
}

// Proc models a packet-processing resource with a fixed per-item cost and a
// bounded input queue: a switch pipeline, a host's receive stack, or the
// compare element's CPU. Items are served in FIFO order; an item submitted
// while the queue is full is dropped.
//
// Proc is the mechanism behind several of the paper's observations: the
// compare's per-copy cost bounds Central3/Central5 throughput, and the
// destination host's ingest capacity is what makes Dup5 slower than Dup3
// ("packets spend more time buffered on ... the destination host", §V-B).
type Proc struct {
	sched *sim.Scheduler

	// PerItem is the service time per submitted item. Zero means the
	// Proc is infinitely fast.
	perItem time.Duration
	// queueLimit bounds the number of items waiting or in service;
	// zero means unbounded.
	queueLimit int

	// hysteresis, when set, makes overflow sticky: once the queue
	// fills, everything is dropped until it drains to half capacity —
	// the burst-drop behaviour of a NIC ring serviced by a polling
	// driver. Burst drops are what correlate the losses of a packet's k
	// combiner copies at an overloaded destination host.
	hysteresis bool
	dropping   bool

	busyUntil time.Duration
	queued    int
	stats     ProcStats
	paused    time.Duration

	// gen is bumped by Reset; completion events stamped with an older
	// generation are no-ops, which is how a crash discards work that was
	// queued or in service when it hit.
	gen uint32

	// freeCalls recycles SubmitArgs call records.
	freeCalls *procCall
}

// NewProc returns a processing resource. perItem is the service time per
// item (zero = infinitely fast); queueLimit bounds the queue (zero =
// unbounded).
func NewProc(sched *sim.Scheduler, perItem time.Duration, queueLimit int) *Proc {
	p := MakeProc(sched, perItem, queueLimit)
	return &p
}

// MakeProc is NewProc by value, for an owner that holds its Proc inline
// instead of as a second object.
func MakeProc(sched *sim.Scheduler, perItem time.Duration, queueLimit int) Proc {
	return Proc{sched: sched, perItem: perItem, queueLimit: queueLimit}
}

// Stats returns the counters so far.
func (p *Proc) Stats() ProcStats { return p.stats }

// Stall makes the resource unavailable for d beyond its current horizon.
// The compare element uses this to model cache-cleanup pauses, the
// mechanism behind the paper's jitter result (Fig. 8).
func (p *Proc) Stall(d time.Duration) {
	now := p.sched.Now()
	if p.busyUntil < now {
		p.busyUntil = now
	}
	p.busyUntil += d
	p.paused += d
}

// Submit enqueues work that runs fn after the item reaches the head of the
// queue and is serviced. It reports whether the item was accepted.
func (p *Proc) Submit(fn func()) bool {
	finish, ok := p.admit()
	if !ok {
		return false
	}
	p.sched.AtCall(finish, procRun, p, fn, int(p.gen))
	return true
}

// Reset models a cold restart of the resource: every item waiting or in
// service is discarded (its completion callback never runs), the overflow
// latch clears, and the resource is idle from now on. Counters survive —
// they are observations, not state.
func (p *Proc) Reset() {
	p.gen++
	p.queued = 0
	p.dropping = false
	p.busyUntil = p.sched.Now()
}

// SetHysteresis enables ring-buffer-style overflow: after the queue
// fills, all submissions are dropped until it drains below half capacity.
func (p *Proc) SetHysteresis(on bool) { p.hysteresis = on }

// SubmitArgs is the allocation-free form of Submit: instead of a fresh
// closure per item, the callback receives its state through the scheduler's
// inline argument slots. a0 and a1 should be pointer-shaped; n is carried
// inline. The per-copy paths of the edge and compare nodes use this so the
// steady state submits work with zero heap allocations.
func (p *Proc) SubmitArgs(fn sim.CallFunc, a0, a1 any, n int) bool {
	finish, ok := p.admit()
	if !ok {
		return false
	}
	c := p.freeCalls
	if c != nil {
		p.freeCalls = c.next
	} else {
		c = &procCall{}
	}
	c.fn, c.a0, c.a1 = fn, a0, a1
	c.gen = p.gen
	p.sched.AtCall(finish, procRunArgs, p, c, n)
	return true
}

// admit applies the queue policy and, on acceptance, books one item's
// service interval, returning the completion time.
func (p *Proc) admit() (time.Duration, bool) {
	if p.queueLimit > 0 {
		if p.queued >= p.queueLimit {
			p.dropping = p.hysteresis
			p.stats.Dropped++
			return 0, false
		}
		if p.dropping {
			if p.queued > p.queueLimit/2 {
				p.stats.Dropped++
				return 0, false
			}
			p.dropping = false
		}
	}
	start := p.sched.Now()
	if p.busyUntil > start {
		start = p.busyUntil
	}
	finish := start + p.perItem
	p.busyUntil = finish
	p.queued++
	return finish, true
}

func procRun(a0, a1 any, n int) {
	p := a0.(*Proc)
	if uint32(n) != p.gen {
		return // submitted before a Reset: the work died with the crash
	}
	p.queued--
	p.stats.Processed++
	a1.(func())()
}

// procCall carries one SubmitArgs item's callback and arguments; instances
// are pooled on the owning Proc (a call is in flight from submission until
// its event fires, so the pool's steady state is the queue's high-water
// mark).
type procCall struct {
	fn     sim.CallFunc
	a0, a1 any
	gen    uint32
	next   *procCall
}

func procRunArgs(a0, a1 any, n int) {
	p := a0.(*Proc)
	c := a1.(*procCall)
	stale := c.gen != p.gen
	fn, ca0, ca1 := c.fn, c.a0, c.a1
	c.fn, c.a0, c.a1 = nil, nil, nil
	c.next = p.freeCalls
	p.freeCalls = c
	if stale {
		return // submitted before a Reset: the work died with the crash
	}
	p.queued--
	p.stats.Processed++
	fn(ca0, ca1, n)
}
