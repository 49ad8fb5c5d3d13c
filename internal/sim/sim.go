// Package sim provides the deterministic discrete-event core that every
// other package in this repository is built on.
//
// All network activity — link serialisation, propagation, switch pipelines,
// the NetCo compare engine, traffic generators — is expressed as events on a
// single virtual clock. Two properties make the whole reproduction
// trustworthy:
//
//   - Virtual time: a 10-second iperf run finishes in milliseconds of wall
//     time and is not perturbed by the host machine.
//   - Determinism: events firing at the same instant are executed in the
//     order they were scheduled, and all randomness flows through a seeded
//     RNG, so every experiment is bit-for-bit repeatable.
//
// The scheduler is the simulator's hottest data structure: every packet
// transmission, delivery and processing step is one event. It therefore
// avoids per-event heap allocations entirely: events live in a recycled
// arena indexed by a free list, the priority queue holds inline
// (deadline, band, key, index) nodes, and Timer is a value type. Only the
// caller's closure escapes.
//
// The queue is a radix heap (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990)
// whose lowest level is a small 4-ary heap: a node due by the heap's
// horizon is sorted there, and every later node is appended, unordered,
// to the bucket named by the highest bit in which its deadline differs
// from the horizon. When the heap empties, the lowest bucket refills it:
// whole when it is small, otherwise split into lower buckets at its
// earliest deadline. A node only ever moves to lower buckets, so the work
// per event does not grow with the far-future backlog (a fat tree's
// hundred-odd traffic ticks, an hour-long timeout).
package sim

import (
	"math"
	"math/bits"
	"time"
)

// Scheduler is a discrete-event scheduler with a virtual clock.
//
// The zero value is not usable; construct with NewScheduler. A Scheduler is
// not safe for concurrent use: a simulation is a single logical thread of
// control (parallelism across *experiments* is achieved by running multiple
// schedulers).
type Scheduler struct {
	now time.Duration
	seq uint64

	// firedBelow places the scheduler inside the current instant: of the
	// ordinary events due at now, exactly those scheduled while the
	// insertion sequence was below it have fired (see Fired).
	firedBelow uint64

	// recs is the event arena; free lists recycled indices. A record is
	// recycled only when its node is popped (fire or lazy cancel sweep),
	// never by Timer.Stop — the node still references it. Each record has
	// exactly one node; Rearm moves the record and leaves the node to
	// follow when it surfaces.
	recs []eventRec
	free []int32

	// executed counts events that have fired; useful for progress
	// reporting and runaway detection in tests.
	executed uint64
	// live counts scheduled-but-not-yet-fired events, excluding
	// lazily-cancelled ones still parked in the queue (see Live).
	live int

	// The queue pops nodes in (deadline, band, key) order, which yields
	// deterministic FIFO semantics for simultaneous events. Nodes
	// reference event records by arena index.
	//
	// heap is a 4-ary min-heap of every node due by horizon, so its
	// minimum is the queue's. far[b] holds, unordered, the later nodes
	// whose deadline differs from horizon highest in bit b, so every node
	// of far[b] is due before every node of far[b+1]; bit b of farMask
	// says far[b] is non-empty and farMin[b] is its earliest deadline.
	horizon time.Duration
	heap    []heapNode
	farMask uint64
	farMin  [64]time.Duration
	far     [64][]heapNode
}

// heapNode orders events by (at, band, key):
//
//   - Ordinary events carry band 0 and key = the scheduler's insertion
//     sequence: FIFO among simultaneous locals.
//   - Channel events (AtCallChan) carry band = channel id + 1 and key =
//     the caller's per-channel sequence. They sort after every ordinary
//     event at the same instant, and among themselves by (channel, seq) —
//     an order that is a pure function of the event's origin, not of when
//     this scheduler learned about it. That property is what makes a
//     partitioned run (internal/sim/par) bit-identical to a serial one:
//     a cross-partition delivery injected at an epoch barrier lands in
//     exactly the position it would have occupied had it been scheduled
//     the moment it was sent.
type heapNode struct {
	at   time.Duration
	key  uint64
	band uint32
	rec  int32
}

func nodeLess(a, b heapNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.band != b.band {
		return a.band < b.band
	}
	return a.key < b.key
}

// CallFunc is the argument-carrying form of an event callback, used by
// AtCall. The two any slots carry pointer-shaped values (pointers, func
// values) that box without allocating; n carries a small integer inline.
type CallFunc func(a0, a1 any, n int)

// eventRec is one pooled event, one cache line (TestEventRecSize). gen
// increments each time the record is recycled or re-armed so that stale
// Timers (whose event already fired, or was re-armed under a newer
// handle) can be told apart from live ones without keeping the record
// alive. call is nil once the event is cancelled; a closure event (At)
// is callFunc with the closure in a0.
//
// (at, key) is where the event is due. It normally equals the queue
// node's; after Rearm it is later, and the node is stale: a node whose
// key differs from its record's is re-filed at the record's position when
// it surfaces instead of firing. Channel events, which Rearm never
// moves, store their deadline complemented (negative) to say so.
type eventRec struct {
	call CallFunc
	a0   any
	a1   any
	at   time.Duration
	key  uint64
	n    int32
	gen  uint32
}

// callFunc is the CallFunc of a closure event: a0 holds the func().
func callFunc(a0, _ any, _ int) { a0.(func())() }

// NewScheduler returns a scheduler with the clock at zero and no pending
// events.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration {
	return s.now
}

// Executed returns the number of events that have fired so far.
func (s *Scheduler) Executed() uint64 {
	return s.executed
}

// Pending returns the number of queue nodes: every event that will fire
// plus the cancelled ones not yet removed from the queue. A re-armed
// timer keeps its one node, so Rearm adds nothing here. For progress or
// idleness decisions use Live, which ignores the cancelled residue.
func (s *Scheduler) Pending() int {
	n := len(s.heap)
	for m := s.farMask; m != 0; m &= m - 1 {
		n += len(s.far[bits.TrailingZeros64(m)])
	}
	return n
}

// Live returns the number of events that are scheduled and will actually
// fire: cancelled-but-not-yet-popped events (Timer.Stop is lazy) are
// excluded, and a re-armed timer counts once. Live()==0 means running
// the scheduler would execute nothing — the idle test Pending cannot
// provide, since phantom cancelled events keep Pending nonzero
// indefinitely.
func (s *Scheduler) Live() int {
	return s.live
}

// OrderStamp returns the scheduler's position in insertion order: an
// ordinary event scheduled now would run after every ordinary event
// scheduled before this call and before every one scheduled after it.
// Together with Fired it lets a caller account for an event it would
// otherwise have to schedule only to learn that its deadline has passed
// (netem's transmit queue does).
func (s *Scheduler) OrderStamp() uint64 {
	return s.seq
}

// Fired reports whether an ordinary event due at the given instant,
// scheduled when OrderStamp returned stamp, would have fired by now. At
// the current instant that is a question of event order: such an event
// has fired iff it was scheduled before the running event began and sorts
// before it — which every ordinary event does when the running event is a
// channel event, and otherwise the one scheduled first does.
func (s *Scheduler) Fired(at time.Duration, stamp uint64) bool {
	if at != s.now {
		return at < s.now
	}
	return stamp < s.firedBelow
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) runs the event at the current time instead, preserving the
// no-time-travel invariant. The returned Timer may be used to cancel the
// event before it fires.
func (s *Scheduler) At(t time.Duration, fn func()) Timer {
	idx, rec := s.allocRec()
	rec.call = callFunc
	rec.a0 = fn
	return s.arm(t, 0, s.nextSeq(), idx, rec)
}

// AtCall schedules fn(a0, a1, n) at absolute virtual time t without
// allocating: the arguments are stored inline in the pooled event record,
// so hot paths (link delivery, processing pipelines) that would otherwise
// capture state in a fresh closure per event stay allocation-free. a0 and
// a1 should be pointer-shaped (pointers, func values) — other types box
// on conversion to any, which reintroduces the allocation. n must fit in
// 32 bits.
func (s *Scheduler) AtCall(t time.Duration, fn CallFunc, a0, a1 any, n int) Timer {
	idx, rec := s.allocRec()
	rec.setCall(fn, a0, a1, n)
	return s.arm(t, 0, s.nextSeq(), idx, rec)
}

// AtCallChan schedules fn(a0, a1, n) at absolute virtual time t on a
// delivery channel: at equal deadlines the event sorts after every
// ordinary event and among channel events by (ch, seq). The caller owns
// the (ch, seq) numbering and must keep it unique per (deadline, ch);
// netem assigns ch per link direction and seq from a per-direction
// counter. Because the ordering key travels with the event instead of
// being assigned at insertion, a partitioned engine can inject the event
// late (at an epoch barrier) without perturbing execution order — the
// foundation of the serial/parallel bit-identity guarantee.
func (s *Scheduler) AtCallChan(t time.Duration, ch, seq uint64, fn CallFunc, a0, a1 any, n int) Timer {
	if ch >= ^uint64(0)>>1 || ch+1 > 1<<32-1 {
		panic("sim: channel id out of range")
	}
	idx, rec := s.allocRec()
	rec.setCall(fn, a0, a1, n)
	return s.arm(t, uint32(ch+1), seq, idx, rec)
}

func (rec *eventRec) setCall(fn CallFunc, a0, a1 any, n int) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if int(int32(n)) != n {
		panic("sim: event argument n does not fit in 32 bits")
	}
	rec.call = fn
	rec.a0 = a0
	rec.a1 = a1
	rec.n = int32(n)
}

func (s *Scheduler) allocRec() (int32, *eventRec) {
	var idx int32
	if n := len(s.free); n > 0 {
		idx = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.recs = append(s.recs, eventRec{})
		idx = int32(len(s.recs) - 1)
	}
	return idx, &s.recs[idx]
}

func (s *Scheduler) nextSeq() uint64 {
	seq := s.seq
	s.seq++
	return seq
}

func (s *Scheduler) arm(t time.Duration, band uint32, key uint64, idx int32, rec *eventRec) Timer {
	if t < s.now {
		t = s.now
	}
	rec.at, rec.key = t, key
	if band != 0 {
		rec.at = ^t // immovable: Rearm replaces a channel event
	}
	s.push(heapNode{at: t, band: band, key: key, rec: idx})
	s.live++
	return Timer{s: s, at: t, idx: idx, gen: rec.gen}
}

// Rearm cancels t and schedules fn at absolute virtual time at, exactly
// as t.Stop() followed by s.At(at, fn) would — the same one ordering key
// is consumed, t and every copy of it go stale, and the returned Timer is
// the only handle to the new event. What differs is the queue: when t is
// still pending and the new deadline is no earlier than its current one,
// the event record is moved in place and its queue node follows when it
// surfaces, so a timer that is pushed back over and over (a TCP
// retransmission timer, re-armed on every ACK) occupies one node instead
// of leaving a cancelled one behind per re-arm. The zero Timer, a fired
// or stopped one, a channel event and an earlier deadline all take the
// Stop-then-At path.
func (s *Scheduler) Rearm(t Timer, at time.Duration, fn func()) Timer {
	if at < s.now {
		at = s.now
	}
	if t.s == s {
		rec := &s.recs[t.idx]
		if rec.gen == t.gen && rec.call != nil && rec.at >= 0 && at >= rec.at {
			rec.at, rec.key = at, s.nextSeq()
			rec.gen++
			rec.call, rec.a0, rec.a1, rec.n = callFunc, fn, nil, 0
			return Timer{s: s, at: at, idx: t.idx, gen: rec.gen}
		}
	}
	t.Stop()
	return s.At(at, fn)
}

// After schedules fn to run d after the current virtual time. Negative d is
// treated as zero; a deadline beyond the largest Duration saturates there.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	at := s.now + d
	if at < s.now {
		at = math.MaxInt64
	}
	return s.At(at, fn)
}

// Ticker is a repeating timer created by Every. Stop halts future firings.
type Ticker struct {
	s        *Scheduler
	interval time.Duration
	fn       func()
	fireFn   func() // tk.fire, bound once: re-arming allocates nothing
	timer    Timer
	stopped  bool
}

// Every schedules fn to run every interval of virtual time, first firing
// one interval from now. The returned Ticker must be stopped for a
// finite simulation's queue to drain; interval must be positive. The
// callback runs before the next firing is armed, so fn observing the
// Ticker (e.g. calling Stop) takes effect immediately.
func (s *Scheduler) Every(interval time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: Every interval must be positive")
	}
	tk := &Ticker{s: s, interval: interval, fn: fn}
	tk.fireFn = tk.fire
	tk.arm()
	return tk
}

func (tk *Ticker) arm() {
	tk.timer = tk.s.After(tk.interval, tk.fireFn)
}

func (tk *Ticker) fire() {
	if tk.stopped {
		return
	}
	tk.fn()
	if !tk.stopped {
		tk.arm()
	}
}

// Stop halts the ticker. It is idempotent and safe to call from the
// ticker's own callback.
func (tk *Ticker) Stop() {
	if tk.stopped {
		return
	}
	tk.stopped = true
	tk.timer.Stop()
}

// Step executes the single earliest pending event, advancing the clock to
// its deadline. It reports whether an event was executed (false when the
// queue is empty).
func (s *Scheduler) Step() bool {
	node, ok := s.top()
	if ok {
		s.fire(node)
	}
	return ok
}

// top returns the queue's first node that will fire where it sits. On the
// way it takes nodes in (at, band, key) order, recycling cancelled events
// and re-filing the stale node of a re-armed one at its record's position
// — always later, since Rearm only moves a record later.
func (s *Scheduler) top() (heapNode, bool) {
	for {
		if len(s.heap) == 0 {
			if s.farMask == 0 {
				return heapNode{}, false
			}
			s.redistribute(bits.TrailingZeros64(s.farMask))
		}
		node := s.heap[0]
		rec := &s.recs[node.rec]
		if rec.call != nil && rec.key == node.key {
			return node, true
		}
		s.popMin()
		if rec.call == nil {
			s.release(node.rec)
		} else {
			s.push(heapNode{at: rec.at, key: rec.key, rec: node.rec})
		}
	}
}

// fire pops node, which top just returned, and runs its event.
func (s *Scheduler) fire(node heapNode) {
	s.popMin()
	rec := &s.recs[node.rec]
	call, a0, a1, n := rec.call, rec.a0, rec.a1, int(rec.n)
	s.release(node.rec)
	s.live--
	s.now = node.at
	if node.band == 0 {
		s.firedBelow = node.key + 1
	} else {
		// Every ordinary event due now has fired. Drawing a sequence
		// number separates those scheduled before this event began from
		// those it schedules itself.
		s.instantDone()
	}
	s.executed++
	call(a0, a1, n)
}

// instantDone records that every ordinary event scheduled so far for the
// current instant has fired.
func (s *Scheduler) instantDone() {
	s.seq++
	s.firedBelow = s.seq
}

// Run executes events until the queue is empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
	s.instantDone()
}

// RunUntil executes events with deadlines <= t, then advances the clock to
// exactly t. Events scheduled beyond t remain pending.
func (s *Scheduler) RunUntil(t time.Duration) {
	for {
		node, ok := s.top()
		if !ok || node.at > t {
			break
		}
		s.fire(node)
	}
	if s.now <= t {
		s.now = t
		s.instantDone()
	}
}

// RunFor advances the simulation by d from the current virtual time.
func (s *Scheduler) RunFor(d time.Duration) {
	s.RunUntil(s.now + d)
}

// RunBefore executes events with deadlines strictly < t, then advances
// the clock to exactly t. It is RunUntil's half-open sibling, used by the
// partitioned engine to run an epoch [now, t) whose right boundary
// belongs to the next epoch (cross-partition handoffs can land exactly on
// a barrier, so events *at* a barrier must wait for injection).
func (s *Scheduler) RunBefore(t time.Duration) {
	for {
		node, ok := s.top()
		if !ok || node.at >= t {
			break
		}
		s.fire(node)
	}
	if s.now < t {
		s.now = t
		s.firedBelow = 0 // nothing due at t has fired
	}
}

// PeekDeadline returns the deadline of the earliest event that will
// actually fire, lazily discarding cancelled events and letting the nodes
// of re-armed ones catch up, so a deadline a timer was moved away from is
// never reported. ok is false when nothing live is scheduled.
func (s *Scheduler) PeekDeadline() (at time.Duration, ok bool) {
	node, ok := s.top()
	return node.at, ok
}

// release recycles an event record whose node has been popped. The
// generation bump is what invalidates outstanding Timers; clearing the
// arguments releases the closure to the GC.
func (s *Scheduler) release(idx int32) {
	rec := &s.recs[idx]
	rec.call = nil
	rec.a0 = nil
	rec.a1 = nil
	rec.gen++
	s.free = append(s.free, idx)
}

// push files a node: into the heap when it is due by horizon, otherwise
// into a far bucket.
func (s *Scheduler) push(n heapNode) {
	if n.at > s.horizon {
		s.pushFar(n)
		return
	}
	s.heap = append(s.heap, n)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !nodeLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// pushFar appends a node due after horizon to the bucket of the highest
// bit in which its deadline differs from horizon. Only the bucket's
// earliest deadline is kept up to date, in farMin, beside the buckets:
// filing never reads a bucket's nodes.
func (s *Scheduler) pushFar(n heapNode) {
	b := bits.Len64(uint64(n.at^s.horizon)) - 1
	f := s.far[b]
	if len(f) == 0 {
		s.farMask |= 1 << b
		s.farMin[b] = n.at
	} else if n.at < s.farMin[b] {
		s.farMin[b] = n.at
	}
	s.far[b] = append(f, n)
}

// wholeBucket is the largest bucket redistribute hands to the heap as it
// stands: sorting so few nodes costs less than filing each again.
const wholeBucket = 4

// redistribute refills the empty heap from far[b], the lowest non-empty
// bucket, whose nodes all agree with its earliest deadline m from bit b
// up. A bucket of at most wholeBucket nodes goes to the heap whole:
// horizon becomes the last instant they can share, m with every bit below
// b set. A larger one is split: horizon becomes m, and the nodes due then
// go to the heap, the rest to lower buckets. Either way horizon changes
// only below bit b+1, so every higher bucket keeps its index.
func (s *Scheduler) redistribute(b int) {
	f := s.far[b]
	m := s.farMin[b]
	s.far[b] = f[:0]
	s.farMask &^= 1 << b
	s.horizon = m
	if len(f) <= wholeBucket {
		s.horizon |= 1<<b - 1
	}
	for _, n := range f {
		s.push(n)
	}
}

// popMin removes the heap minimum.
func (s *Scheduler) popMin() {
	n := len(s.heap) - 1
	s.heap[0] = s.heap[n]
	s.heap = s.heap[:n]
	s.siftDown(0)
}

// siftDown restores heap order below position i.
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if nodeLess(h[j], h[best]) {
				best = j
			}
		}
		if !nodeLess(h[best], h[i]) {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// Timer is a handle to a scheduled event. It is a plain value (no heap
// allocation per event); the zero Timer refers to no event. A Timer stays
// valid after its event fires: Stop then reports false, because the
// underlying pooled record's generation has moved on.
type Timer struct {
	s   *Scheduler
	at  time.Duration
	idx int32
	gen uint32
}

// Stop cancels the event if it has not fired yet. It reports whether the
// call prevented the event from firing.
//
// Stop must not recycle the event record: the queue still holds a node
// referencing it, and recycling would let a new event claim the index and
// then be released by the stale node's pop. Cancellation therefore only
// marks the record (a nil callback, which also lets go of the closure and
// arguments at once); the pop path recycles it.
func (t Timer) Stop() bool {
	if t.s == nil {
		return false
	}
	rec := &t.s.recs[t.idx]
	if rec.gen != t.gen || rec.call == nil {
		return false
	}
	rec.call, rec.a0, rec.a1 = nil, nil, nil
	t.s.live--
	return true
}

// Scheduled reports whether the Timer refers to an event at all (the zero
// Timer does not). It is the replacement for comparing a *Timer against
// nil; it says nothing about whether the event has already fired.
func (t Timer) Scheduled() bool {
	return t.s != nil
}
