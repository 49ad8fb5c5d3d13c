// Package par is a conservative parallel discrete-event engine: the
// topology is split into domains, each owning a private sim.Scheduler,
// and domains advance in epochs bounded by the simulation's lookahead —
// the minimum cross-partition link propagation delay.
//
// The correctness argument is the classic Chandy–Misra–Bryant one,
// specialised to a global barrier: an event executing at time u in
// domain A can influence domain B no earlier than u + L, where L is the
// smallest delay on any A→B channel. If every domain runs its local
// events in the half-open window [B, B+L) while cross-domain sends are
// buffered as timestamped handoffs, then no handoff generated during the
// epoch can have a deliver time inside it — injection at the barrier is
// always causally safe.
//
// Determinism is stronger than "same results": the parallel run is
// bit-identical to the serial run of the same topology. Cross-domain
// deliveries carry a (channel, sequence) key assigned at the *source*
// (netem gives every link direction a channel id from its deterministic
// creation order, and numbers deliveries per direction), and
// sim.Scheduler orders channel events at equal deadlines by exactly that
// key — after all ordinary local events, which never cross domains. A
// delivery injected at a barrier therefore executes in the same position
// it would have in the serial heap, and by induction every domain
// processes an identical event sequence under any partition or worker
// count. The differential suites in internal/experiment and
// internal/harness enforce this byte-for-byte.
package par

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"netco/internal/sim"
)

// Handoff is one buffered cross-partition event: a delivery scheduled by
// a source domain for execution in another domain. At is the absolute
// deliver time; Ch/Seq the channel ordering key (see sim.AtCallChan);
// Fn/A0/A1/N the argument-carrying callback exactly as the source would
// have scheduled locally.
type Handoff struct {
	At      time.Duration
	Ch, Seq uint64
	Fn      sim.CallFunc
	A0, A1  any
	N       int
}

// Domain is one partition: a private scheduler plus per-source mailboxes
// for inbound handoffs. inbox[src] is appended to only by source domain
// src's worker goroutine during an epoch and drained only by the
// coordinator between epochs, so no locking is needed; the epoch
// barrier's channel synchronisation provides the happens-before edges.
type Domain struct {
	id    int
	sched *sim.Scheduler
	inbox [][]Handoff
	// posted counts handoffs this domain sent; like its inbox slots in
	// other domains it is written only by the goroutine advancing it.
	posted uint64
}

// Boundary is the cross-partition post target for one (src, dst) domain
// pair; it satisfies netem.CrossPost. Post buffers the event in the
// destination's mailbox slot owned by the source.
type Boundary struct {
	src, dst *Domain
	eng      *Engine
}

// Post enqueues a handoff for injection at the next epoch barrier. A
// deliver time inside the open epoch means the lookahead exceeds this
// link's delay: the destination may already have run past at, so
// injecting it at the barrier would silently differ from the serial run.
func (b Boundary) Post(at time.Duration, ch, seq uint64, fn sim.CallFunc, a0, a1 any, n int) {
	if at < b.eng.horizon {
		panic(fmt.Sprintf("par: handoff on channel %d delivers at %v, inside the epoch ending at %v (lookahead %v exceeds the link's delay)",
			ch, at, b.eng.horizon, b.eng.lookahead))
	}
	b.src.posted++
	box := &b.dst.inbox[b.src.id]
	*box = append(*box, Handoff{At: at, Ch: ch, Seq: seq, Fn: fn, A0: a0, A1: a1, N: n})
}

const maxTime = time.Duration(math.MaxInt64)

// Engine coordinates the domains. It implements sim.Runner, so a
// partitioned testbed is driven exactly like a serial one.
//
// An Engine is not safe for concurrent use; RunFor/RunUntil must be
// called from one goroutine. Each run with more than one worker starts
// the workers and joins them before it returns, so no goroutine outlives
// a run and an idle Engine needs no Close; the channels they hand
// epochs over on are the Engine's, made on the first such run.
//
// With more than one worker, an epoch executes either on the worker
// goroutines or inline on the calling goroutine, whichever the engine
// has measured to be cheaper per executed event (see choice). The wall
// clock may steer that because results do not depend on it.
type Engine struct {
	domains   []*Domain
	lookahead time.Duration
	workers   int
	now       time.Duration
	bounded   bool // a Boundary was handed out: lookahead must be set

	// horizon is the first instant a handoff posted in the open epoch
	// may deliver at. The coordinator writes it before dispatch; the
	// barrier's channel operations order that before every Post.
	horizon time.Duration

	choice       choice
	epochs       uint64
	inlineEpochs uint64

	// The worker hand-off: one command channel per worker, the channel
	// every worker reports an epoch's end and its exit on, and each
	// worker's body bound to its slice of the domains.
	cmds   []chan epochCmd
	done   chan struct{}
	bodies []func()
}

// New creates an engine with n fresh domains. workers bounds the worker
// goroutines per run; <= 0 means min(n, GOMAXPROCS).
func New(n, workers int) *Engine {
	if n < 1 {
		panic("par: need at least one domain")
	}
	e := &Engine{workers: workers, choice: newChoice()}
	for i := 0; i < n; i++ {
		e.domains = append(e.domains, &Domain{
			id:    i,
			sched: sim.NewScheduler(),
			inbox: make([][]Handoff, n),
		})
	}
	return e
}

// Domains returns the number of partitions.
func (e *Engine) Domains() int { return len(e.domains) }

// Schedulers returns every domain's scheduler, by domain id.
func (e *Engine) Schedulers() []*sim.Scheduler {
	out := make([]*sim.Scheduler, len(e.domains))
	for i, d := range e.domains {
		out[i] = d.sched
	}
	return out
}

// Boundary returns the post target for src→dst handoffs. The topology
// layer hands it to every cross-partition link.
func (e *Engine) Boundary(src, dst int) Boundary {
	e.bounded = true
	return Boundary{src: e.domains[src], dst: e.domains[dst], eng: e}
}

// SetLookahead declares the epoch bound: the minimum propagation delay
// over all cross-partition links. It must be positive once any Boundary
// is in use — a zero-delay cut would make barrier injection causally
// unsafe — and is normally taken from netem.Network.MinCrossDelay after
// wiring.
func (e *Engine) SetLookahead(d time.Duration) {
	if d < 0 {
		panic("par: negative lookahead")
	}
	e.lookahead = d
}

// Now returns the engine's virtual time (the epoch frontier).
func (e *Engine) Now() time.Duration { return e.now }

// Executed sums fired events over all domains. A parallel run executes
// exactly the events of the serial run, so this matches the serial
// scheduler's count.
func (e *Engine) Executed() uint64 {
	var n uint64
	for _, d := range e.domains {
		n += d.sched.Executed()
	}
	return n
}

// Stats is what the engine counted about its own execution. Everything
// but Handoffs and DomainEvents depends on the wall clock, so none of it
// belongs in an artifact or digest that is compared between runs.
type Stats struct {
	Epochs       uint64 // dispatched epochs, each run's closing pass included
	InlineEpochs uint64 // of those, executed on the calling goroutine
	Changeovers  uint64 // times a trial made the engine change ways
	Handoffs     uint64 // cross-partition events posted
	DomainEvents []uint64
}

// InlineFrac is the share of epochs executed on the calling goroutine.
func (s Stats) InlineFrac() float64 {
	if s.Epochs == 0 {
		return 0
	}
	return float64(s.InlineEpochs) / float64(s.Epochs)
}

// Imbalance is the busiest domain's executed events over the mean: 1 is
// an even split, Domains() is one domain doing everything.
func (s Stats) Imbalance() float64 {
	var max, sum uint64
	for _, n := range s.DomainEvents {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) * float64(len(s.DomainEvents)) / float64(sum)
}

// Stats reads the counters; call it between runs.
func (e *Engine) Stats() Stats {
	st := Stats{
		Epochs:       e.epochs,
		InlineEpochs: e.inlineEpochs,
		Changeovers:  e.choice.changeovers,
		DomainEvents: make([]uint64, len(e.domains)),
	}
	for i, d := range e.domains {
		st.Handoffs += d.posted
		st.DomainEvents[i] = d.sched.Executed()
	}
	return st
}

// Live sums live (will-fire) events over all domains; buffered handoffs
// count too, since injection will schedule them.
func (e *Engine) Live() int {
	n := 0
	for _, d := range e.domains {
		n += d.sched.Live()
		for _, box := range d.inbox {
			n += len(box)
		}
	}
	return n
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// RunUntil executes events with deadlines <= t across all domains, then
// advances every clock to exactly t — observationally equivalent to
// sim.Scheduler.RunUntil on the union of the domains.
func (e *Engine) RunUntil(t time.Duration) {
	if t < e.now {
		t = e.now
	}
	e.checkBounded()
	if w := e.workerCount(); w > 1 {
		e.runWorkers(w, t)
	} else {
		e.advance(t, e.runInline)
	}
}

// advance runs the epochs up to and including t, each through dispatch.
func (e *Engine) advance(t time.Duration, dispatch func(until time.Duration, inclusive bool)) {
	// Epochs are strictly half-open: [B, min(B+L, t)). An event at u in
	// such a window hands off at >= u+L >= the window end, so by the time
	// the frontier reaches t every handoff with deliver time <= t has
	// been generated by some already-executed event and sits in a
	// mailbox. That makes the single inclusive pass below exact: all
	// events at deadline t — local and injected — are in their heaps
	// before it starts, so the (band, key) order matches the serial
	// heap's. (An inclusive pass per epoch would not be: a handoff
	// landing exactly on a barrier could execute after a same-deadline
	// channel event with a larger key.)
	for {
		e.inject()
		next, ok := e.nextDeadline()
		if !ok || next >= t {
			break
		}
		if next > e.now {
			e.now = next // idle-skip: jump dead air between events
		}
		end := e.now + e.lookahead
		if e.lookahead == 0 || end > t {
			end = t
		}
		dispatch(end, false)
		e.now = end
	}
	// Execute events at exactly t, and sync every domain clock to t,
	// matching serial RunUntil's "advance the clock to exactly t"
	// contract. Events at t hand off at >= t+L, never at <= t, so no
	// further injection round is needed.
	e.inject()
	dispatch(t, true)
	e.now = t
}

func (e *Engine) checkBounded() {
	if e.bounded && e.lookahead == 0 {
		panic("par: boundaries wired but no lookahead set (SetLookahead after Connect)")
	}
}

// inject drains every mailbox into its domain's scheduler. Injection
// order is irrelevant: the scheduler orders channel events by the
// (Ch, Seq) key carried in the handoff.
func (e *Engine) inject() {
	for _, d := range e.domains {
		for si, box := range d.inbox {
			if len(box) == 0 {
				continue
			}
			for i := range box {
				h := &box[i]
				d.sched.AtCallChan(h.At, h.Ch, h.Seq, h.Fn, h.A0, h.A1, h.N)
				h.Fn, h.A0, h.A1 = nil, nil, nil // release to GC; slice is reused
			}
			d.inbox[si] = box[:0]
		}
	}
}

// nextDeadline returns the earliest live deadline across all domains
// (mailboxes must already be drained).
func (e *Engine) nextDeadline() (time.Duration, bool) {
	next, any := maxTime, false
	for _, d := range e.domains {
		if at, ok := d.sched.PeekDeadline(); ok && (!any || at < next) {
			next, any = at, true
		}
	}
	return next, any
}

// runSlice advances this worker's statically assigned domains. The
// static domain→worker map keeps the execution schedule independent of
// goroutine timing.
func (e *Engine) runSlice(off, stride int, until time.Duration, inclusive bool) {
	for i := off; i < len(e.domains); i += stride {
		s := e.domains[i].sched
		if inclusive {
			s.RunUntil(until)
		} else {
			s.RunBefore(until)
		}
	}
}

// epochCmd is one epoch for a worker, or, with stop set, the end of
// the run.
type epochCmd struct {
	until     time.Duration
	inclusive bool
	stop      bool
}

// workerCount is how many worker goroutines a run uses: the configured
// bound, at most one per domain.
func (e *Engine) workerCount() int {
	w := e.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return min(w, len(e.domains))
}

// runInline executes one epoch on the calling goroutine. With one worker
// (or one domain) every epoch runs this way, and a run allocates nothing.
func (e *Engine) runInline(until time.Duration, inclusive bool) {
	e.open(until, inclusive)
	e.inlineEpochs++
	e.runSlice(0, 1, until, inclusive)
}

// runWorkers advances to t on w > 1 workers. Each worker goroutine owns
// a static slice of domains and lives for this one call; the Engine's
// channels, whose send/receive pairs provide the happens-before edges
// that make the lock-free mailboxes safe, are made on the first call
// (or when w changes) and reused, so a warm run allocates nothing. In a
// stretch the engine has chosen to run inline the workers stay parked
// on their command channel.
func (e *Engine) runWorkers(w int, t time.Duration) {
	if len(e.cmds) != w {
		e.cmds, e.bodies = make([]chan epochCmd, w), make([]func(), w)
		for off := range w {
			e.cmds[off] = make(chan epochCmd)
			e.bodies[off] = func() { e.work(off, w) }
		}
		e.done = make(chan struct{}, w)
	}
	for _, body := range e.bodies {
		go body()
	}
	e.choice.resume(e.read())
	defer e.stopWorkers()
	e.advance(t, e.dispatch)
}

// work is one worker's run: it advances its slice of the domains for
// each epoch it is handed and reports on done, until it is stopped.
func (e *Engine) work(off, w int) {
	for c := <-e.cmds[off]; !c.stop; c = <-e.cmds[off] {
		e.runSlice(off, w, c.until, c.inclusive)
		e.done <- struct{}{}
	}
	e.done <- struct{}{}
}

// stopWorkers ends a run on the workers: it banks the run's wall time
// with the choice and joins every worker.
func (e *Engine) stopWorkers() {
	e.choice.suspend(e.read())
	for _, ch := range e.cmds {
		ch <- epochCmd{stop: true}
	}
	for range e.cmds {
		<-e.done
	}
}

// dispatch executes one epoch of a run on the workers, there or inline
// as the choice says.
func (e *Engine) dispatch(until time.Duration, inclusive bool) {
	if e.choice.epoch(e.read) == inline {
		e.runInline(until, inclusive)
		return
	}
	e.open(until, inclusive)
	cmd := epochCmd{until: until, inclusive: inclusive}
	for _, ch := range e.cmds {
		ch <- cmd
	}
	for range e.cmds {
		<-e.done
	}
}

// read is the (clock, executed events) reading the choice measures by.
func (e *Engine) read() (time.Time, uint64) { return time.Now(), e.Executed() }

// open counts an epoch and publishes its horizon for Boundary.Post: an
// exclusive pass runs events before until, so a handoff may land on
// until itself; an inclusive pass runs the events at until too.
func (e *Engine) open(until time.Duration, inclusive bool) {
	e.epochs++
	e.horizon = until
	if inclusive && until < maxTime {
		e.horizon++
	}
}
