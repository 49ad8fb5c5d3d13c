// Package netem is the discrete-event network emulator the NetCo
// reproduction runs on: the stand-in for the paper's Mininet testbed.
//
// It models the three resources that shape every number in the paper's
// evaluation:
//
//   - link serialisation (bandwidth) including Ethernet framing overhead,
//   - propagation delay and drop-tail queueing, and
//   - per-node packet processing cost and capacity (Proc), which is how the
//     compare element's CPU cost and a host's ingest limit are expressed.
//
// All activity is scheduled on a sim.Scheduler, so experiments are
// deterministic and run in virtual time.
package netem

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"netco/internal/packet"
	"netco/internal/sim"
)

// Receiver is anything that can accept a packet on a numbered port: a
// switch, a host, a hub, or the compare element.
//
// A Receiver that is a Node whose Ports table was marked with
// Ports.HonourHolds is handed the link's hold on every pooled packet it
// receives (see packet.Pool) and must end it: pass it on with a Send,
// split it with packet.Share, or end it with packet.Done once it has read
// the packet. Any other receiver gets the packet detached from its pool
// (packet.Detach), so it may keep the pointer, or send it twice, as it
// likes.
type Receiver interface {
	// Name identifies the node in traces and error messages.
	Name() string
	// Receive delivers pkt arriving on the given local port.
	Receive(port int, pkt *packet.Packet)
}

// LinkConfig describes one duplex link.
type LinkConfig struct {
	// Bandwidth is the line rate in bits per second. Zero means
	// infinitely fast (no serialisation delay).
	Bandwidth float64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueLimit is the transmit queue capacity in packets for each
	// direction; the packet being serialised occupies one slot. Zero
	// means unbounded.
	QueueLimit int
	// DropInFlight makes a link-down event also discard packets that were
	// already serialised and are propagating when the link goes down — the
	// physical model of a cut fibre. Off (the default) preserves the
	// historical behaviour (and run digests): down only gates new sends,
	// and in-flight packets still arrive.
	DropInFlight bool
	// Impairments, when non-nil, attaches the seeded impairment pipeline
	// (loss models, duplication, corruption, reordering — see impair.go)
	// to both directions of the link. The spec is read-only and may be
	// shared across links; each direction builds private stage state.
	Impairments *ImpairSpec
}

// LinkStats counts traffic for one direction of a link.
//
// The drop counters are disjoint: Drops is backpressure and
// administrative refusal at the sender (tail drop, link down — Send
// returned false), InFlightDrops is the cut-fibre discard at the
// receiver, and ImpairDrops is stochastic wire loss from the impairment
// pipeline (the sender still saw the packet accepted). Corrupted,
// Duplicated and Reordered likewise count impairment-pipeline events
// only, never adversarial modification or protocol retransmission.
type LinkStats struct {
	TxPackets uint64
	TxBytes   uint64
	Drops     uint64
	// InFlightDrops counts packets of this direction that were already in
	// flight when the link went down and were discarded at the receiving
	// end (only with LinkConfig.DropInFlight).
	InFlightDrops uint64
	// ImpairDrops counts packets consumed by a loss stage of the
	// impairment pipeline after the sender accepted them.
	ImpairDrops uint64
	// Corrupted counts packets whose bytes a Corrupt stage flipped.
	Corrupted uint64
	// Duplicated counts extra copies a Duplicate stage injected.
	Duplicated uint64
	// Reordered counts deliveries scheduled to arrive earlier than a
	// previously scheduled delivery of the same direction (jitter from a
	// Reorder stage let a later send overtake an earlier one).
	Reordered uint64
}

// linkDir is one direction's transmit state, 56 bytes. What only an
// impaired direction needs (its counters, the reorder watermark) lives
// on the pipeline, and in-flight drops — counted at the receiving end —
// on the link's cold part.
type linkDir struct {
	busyUntil  time.Duration
	deliverSeq uint64 // per-direction delivery counter: the channel key
	// The sender's counters: LinkStats.TxPackets, TxBytes and Drops.
	txPackets, txBytes, drops uint64
	// queue is the drop-tail queue's occupancy record; nil until the first
	// send on a link with a QueueLimit, so unbounded and idle links carry
	// only the pointer.
	queue *txQueue
	// pipe is the direction's impairment pipeline (nil for clean links —
	// the fast path in Send stays bit-identical to the pre-impairment
	// engine). Owned by the transmitting end's domain.
	pipe *impairPipeline
}

// txQueue accounts a direction's drop-tail queue without an event per
// departure: a FIFO of the accepted frames still counted against
// QueueLimit, each with the instant its serialisation finishes. Frames
// leave in the order they were accepted, so the departed ones are a
// prefix, dropped at the next Send.
//
// A frame finishing exactly now has left iff the tx-done event that used
// to free its slot would already have run, which is a matter of event
// order: stamp is the scheduler's OrderStamp when the frame was accepted
// — where that event would have been queued — and Scheduler.Fired answers
// from it. Tail-drop decisions are therefore the ones the event made.
type txQueue struct {
	ring []txSlot // circular; grows by doubling, never past QueueLimit slots in use
	head int
	n    int
}

type txSlot struct {
	finish time.Duration
	stamp  uint64
}

// occupancy drops the departed prefix and returns how many frames still
// hold a slot.
func (q *txQueue) occupancy(sched *sim.Scheduler) int {
	for q.n > 0 {
		s := q.ring[q.head]
		if !sched.Fired(s.finish, s.stamp) {
			break
		}
		if q.head++; q.head == len(q.ring) {
			q.head = 0
		}
		q.n--
	}
	return q.n
}

func (q *txQueue) push(s txSlot) {
	if q.n == len(q.ring) {
		ring := make([]txSlot, max(4, 2*len(q.ring)))
		k := copy(ring, q.ring[q.head:])
		copy(ring[k:], q.ring[:q.head])
		q.ring, q.head = ring, 0
	}
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = s
	q.n++
}

// CrossPost is the partitioned engine's boundary: where a link's two ends
// live in different partitions, deliveries are posted through it instead
// of being scheduled locally, carrying the same (channel, sequence) key a
// local delivery would. par.Boundary satisfies it.
type CrossPost interface {
	Post(at time.Duration, ch, seq uint64, fn sim.CallFunc, a0, a1 any, n int)
}

// Link is a duplex point-to-point link. Each direction has independent
// serialisation state and a drop-tail queue, like a veth pair with tc
// netem/tbf attached in the paper's Mininet setup.
//
// Every delivery is scheduled as a channel event keyed by
// (id*2+direction, per-direction sequence). The id is globally unique
// and monotone in creation order, so within any one run the keys of
// same-instant deliveries compare in link-creation order — the property
// that makes the serial and partitioned engines execute identical event
// sequences (see internal/sim/par).
//
// A fat-tree fluid fabric is hundreds of thousands of links, nearly all
// idle, so the struct holds only what every link uses (TestLinkSize):
// the LinkConfig is unpacked into the four fields Send reads, the
// impairment spec is consumed at build, and what only some links need
// sits behind the cold pointer.
type Link struct {
	id uint64
	// sched is the scheduler of the nodes at both ends — of end 0 on a
	// link that crosses partitions, where cold holds both.
	sched *sim.Scheduler
	// cold is nil unless the link has a name of its own (NewLink), crosses
	// partitions or drops in-flight packets.
	cold *linkCold

	bandwidth  float64
	delay      time.Duration
	queueLimit int32 // packets per direction; 0 = unbounded
	// denseIdx is the link's position in its Network's creation-order
	// link list, or -1 for links built outside a Network: what its
	// impairment stages seed from (buildImpairments).
	denseIdx     int32
	dropInFlight bool
	// holds[end] is whether the receiver at end honours holds; a
	// packet delivered to any other receiver is detached from its pool.
	holds [2]bool
	// down[end] is end's local view of the link's administrative state,
	// read and written only from end's domain once workers run: Send
	// consults down[fromEnd], delivery consults down[receiving end].
	// Timed toggles (ScheduleDown) arm one event per end on that end's own
	// scheduler, so partitioned runs never share the flag across domains.
	down [2]bool

	// recv[end] and port[end] are the receiver attached at end.
	recv [2]Receiver
	port [2]int32
	dirs [2]linkDir
}

// linkCold is the part of a link that only some links have.
type linkCold struct {
	// name is a standalone link's name; a Network link's is formatted
	// from its ends on demand.
	name string
	// On a link whose ends are in different partitions, scheds[end] is
	// the scheduler of the node at end, cross[fromEnd] the boundary that
	// carries fromEnd's deliveries to the peer domain and out[fromEnd]
	// the crossing pool (packet.Crossing) they are copied into: taken
	// from on fromEnd's goroutine, ended on the peer's. All three are nil
	// on any other link.
	scheds [2]*sim.Scheduler
	cross  [2]CrossPost
	out    [2]*packet.Pool
	// inFlightDrops[end] counts packets end discarded on arrival while
	// its view said down (DropInFlight only); owned by end's domain.
	inFlightDrops [2]uint64
}

// linkIDs hands out globally unique, monotone link ids. Only the
// *relative* order of ids matters (they break same-instant delivery
// ties), so a process-wide counter keeps concurrent sweep runs
// deterministic: each run's links still get ids in its own creation
// order.
var linkIDs atomic.Uint64

// NewLink creates an unattached link. Most callers use Connect instead.
func NewLink(sched *sim.Scheduler, name string, cfg LinkConfig) *Link {
	l := &Link{}
	l.init(sched, linkIDs.Add(1), cfg)
	if name != "" {
		l.coldPart().name = name
	}
	l.buildImpairments(cfg.Impairments)
	return l
}

// buildImpairments instantiates the per-direction impairment pipelines
// from the spec. Called after denseIdx is final: the stage seeds
// incorporate the link's creation index within its Network (not the
// process-global id, which varies across runs sharing the process), so
// the same run inputs always yield the same impairment decisions.
func (l *Link) buildImpairments(spec *ImpairSpec) {
	if spec == nil {
		return
	}
	if err := spec.Validate(); err != nil {
		panic(fmt.Sprintf("netem: link %s: %v", l.Name(), err))
	}
	idx := uint64(l.denseIdx + 1) // standalone links (denseIdx -1) hash as 0
	for dir := range l.dirs {
		l.dirs[dir].pipe = spec.build(idx, dir)
	}
}

// init fills in a (possibly arena-allocated) zero link.
func (l *Link) init(sched *sim.Scheduler, id uint64, cfg LinkConfig) {
	l.id = id
	l.sched = sched
	l.bandwidth = cfg.Bandwidth
	l.delay = cfg.Delay
	l.queueLimit = int32(min(max(cfg.QueueLimit, 0), math.MaxInt32))
	l.denseIdx = -1
	l.dropInFlight = cfg.DropInFlight
	if cfg.DropInFlight {
		l.coldPart()
	}
}

// coldPart returns the link's cold part, allocating it on first use.
func (l *Link) coldPart() *linkCold {
	if l.cold == nil {
		l.cold = &linkCold{}
	}
	return l.cold
}

// schedOf returns the scheduler of the node attached at end.
func (l *Link) schedOf(end int) *sim.Scheduler {
	if c := l.cold; c != nil && c.cross[end] != nil {
		return c.scheds[end]
	}
	return l.sched
}

// Name returns the link's diagnostic name. A link created through a
// Network has none stored — at half a million links the strings would be
// pure build-time overhead — and formats one from its attachments.
func (l *Link) Name() string {
	if l.cold != nil && l.cold.name != "" {
		return l.cold.name
	}
	if l.recv[0] == nil || l.recv[1] == nil {
		return ""
	}
	return fmt.Sprintf("%s:%d<->%s:%d", l.recv[0].Name(), l.port[0], l.recv[1].Name(), l.port[1])
}

// Attach binds one end of the link to a receiver port. end is 0 or 1.
func (l *Link) Attach(end int, r Receiver, port int) {
	l.recv[end], l.port[end] = r, int32(port)
	n, ok := r.(Node)
	l.holds[end] = ok && n.Ports().holds
}

// Attached returns the receiver attached at end (nil if none).
func (l *Link) Attached(end int) Receiver { return l.recv[end] }

// ScheduleDown arms the administrative toggle as a timed event on each
// end's own scheduler, so each domain flips its local view from its own
// goroutine — the race-free path for partitioned runs. Call during
// single-threaded setup (before workers start), like all cross-domain
// scheduling. Ordinary events sort before same-instant deliveries, so a
// down at time T affects packets arriving at exactly T deterministically.
func (l *Link) ScheduleDown(at time.Duration, down bool) {
	n := 0
	if down {
		n = 1
	}
	l.schedOf(0).AtCall(at, linkSetEndDown, l, nil, n)
	l.schedOf(1).AtCall(at, linkSetEndDown, l, nil, 2|n)
}

// linkSetEndDown flips one end's local down view. n encodes end<<1|down.
func linkSetEndDown(a0, _ any, n int) {
	l := a0.(*Link)
	l.down[n>>1] = n&1 == 1
}

// Stats returns the counters for the direction transmitting from end.
// In-flight drops of that direction happen at — and are counted by — the
// receiving end; Stats folds them in, so call it only from setup/teardown
// or a serial run.
func (l *Link) Stats(end int) LinkStats {
	d := &l.dirs[end]
	var s LinkStats
	if d.pipe != nil {
		s = d.pipe.stats // the impairment counters
	}
	s.TxPackets, s.TxBytes, s.Drops = d.txPackets, d.txBytes, d.drops
	if l.cold != nil {
		s.InFlightDrops = l.cold.inFlightDrops[1-end]
	}
	return s
}

// Capacity returns the configured line rate (0 = infinitely fast) — the
// budget the fluid tier's max-min allocator water-fills.
func (l *Link) Capacity() float64 { return l.bandwidth }

// durationNs converts a nanosecond count to a Duration, saturating at
// the largest one. Go leaves converting a float outside int64 to the
// architecture (amd64 yields MinInt64, arm64 saturates), and a deadline
// that wrapped negative is clamped to now: a frame that can never
// finish would arrive at once.
func durationNs(ns float64) time.Duration {
	if !(ns < math.MaxInt64) {
		return math.MaxInt64
	}
	return time.Duration(ns)
}

// addSat returns a+b, saturating at the largest Duration where a
// positive b overflows.
func addSat(a, b time.Duration) time.Duration {
	if s := a + b; s >= a || b < 0 {
		return s
	}
	return math.MaxInt64
}

// Send transmits pkt from the given end toward the peer, modelling
// serialisation, queueing and propagation. It reports whether the packet
// was accepted (false = tail drop or link down). Send takes over the
// caller's hold on a pooled packet (packet.Pool), accepted or not: the
// caller must not read or mutate pkt after sending, and forwarding
// elements that need to alter a packet send a Clone. A refused packet's
// hold ends here; an accepted one's passes to the receiver.
func (l *Link) Send(fromEnd int, pkt *packet.Packet) bool {
	d := &l.dirs[fromEnd]
	if l.down[fromEnd] {
		d.drops++
		packet.Done(pkt)
		return false
	}
	if l.recv[1-fromEnd] == nil {
		panic(fmt.Sprintf("netem: link %s end %d has no peer", l.Name(), 1-fromEnd))
	}
	if d.pipe == nil {
		// Clean link: the pre-impairment fast path, bit-identical to the
		// historical engine.
		return l.sendOne(fromEnd, d, pkt, 0)
	}
	// Impaired link: the pipeline may drop the packet (wire loss — the
	// sender still sees success, unlike backpressure), replace it with a
	// corrupted clone, append duplicates, or assign extra delays. Each
	// surviving delivery then takes the ordinary serialisation path, so
	// duplicates occupy queue slots and transmission time like real
	// frames. Send reports acceptance: true unless backpressure refused
	// every surviving copy.
	dl := d.pipe.apply(pkt)
	ok := len(dl) > 0
	if !ok {
		return true // consumed by wire loss, not refused
	}
	sent := false
	for i := range dl {
		if l.sendOne(fromEnd, d, dl[i].pkt, dl[i].extra) {
			sent = true
		}
	}
	return sent
}

// sendOne runs one delivery through serialisation, queueing and
// propagation, with extra added to the propagation delay (jitter from a
// Reorder stage). It reports whether the queue accepted the packet. On a
// link between partitions the peer domain is handed a copy from the
// direction's crossing pool, and the caller's hold on pkt ends here.
func (l *Link) sendOne(fromEnd int, d *linkDir, pkt *packet.Packet, extra time.Duration) bool {
	sched := l.sched // Send runs in the transmitting node's domain
	var cp CrossPost
	var out *packet.Pool
	if c := l.cold; c != nil && c.cross[fromEnd] != nil {
		sched, cp, out = c.scheds[fromEnd], c.cross[fromEnd], c.out[fromEnd]
	}
	if l.queueLimit > 0 {
		if d.queue == nil {
			d.queue = &txQueue{}
		}
		if d.queue.occupancy(sched) >= int(l.queueLimit) {
			d.drops++
			packet.Done(pkt)
			return false
		}
	}

	now := sched.Now()
	var txTime time.Duration
	if l.bandwidth > 0 {
		bits := float64(pkt.WireLen()+packet.FrameOverhead) * 8
		// Round to the nearest nanosecond instead of truncating: at high
		// line rates truncation yields txTime == 0 and back-to-back
		// frames collapse onto one instant (a 64 B minimum frame at
		// 10 Gb/s serialises in 67.2 ns — truncation would still order
		// them, but any rate where the true time is < 1 ns would not).
		// A link too slow to finish the frame saturates at the largest
		// Duration, and so does everything summed onto it below: the
		// frame never arrives, and the queue behind it never drains.
		txTime = durationNs(math.Round(bits / l.bandwidth * 1e9))
	}
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	finish := addSat(start, txTime)
	d.busyUntil = finish
	if d.queue != nil {
		d.queue.push(txSlot{finish: finish, stamp: sched.OrderStamp()})
	}
	d.txPackets++
	d.txBytes += uint64(pkt.WireLen())

	// One argument-carrying event per transmission, with zero closure
	// allocations (the link is the single hottest scheduler client —
	// every packet on every hop passes through here): the delivery, a
	// keyed channel event on the receiver's scheduler, routed over the
	// partition boundary when the ends live in different domains. The
	// frame leaving the transmit queue at finish is not an event; the
	// queue record above is read back at the next Send.
	ch := l.id*2 + uint64(fromEnd)
	seq := d.deliverSeq
	d.deliverSeq++
	at := addSat(addSat(finish, l.delay), extra)
	if p := d.pipe; p != nil {
		// Reorder accounting: a delivery landing strictly before one
		// already scheduled means a later send overtook an earlier one.
		// Channel-event keys need uniqueness only per (deadline, ch), so
		// out-of-order deadlines on one channel are fine — and the extra
		// delay is >= 0, so at never undercuts the propagation delay that
		// bounds the partitioned engine's lookahead.
		if at < p.maxDeliverAt {
			p.stats.Reordered++
		} else {
			p.maxDeliverAt = at
		}
	}
	if cp != nil {
		// A node's pool stays on its domain's goroutine: the peer domain
		// gets a copy from this direction's crossing pool, and the
		// sender's hold ends here.
		cp.Post(at, ch, seq, linkDeliver, l, out.Copy(pkt), fromEnd)
	} else {
		sched.AtCallChan(at, ch, seq, linkDeliver, l, pkt, fromEnd)
	}
	return true
}

// linkDeliver runs in the receiving end's domain. With DropInFlight, a
// packet arriving while the receiving end's view says down is discarded
// and counted there (the receiving domain owns that counter).
func linkDeliver(a0, a1 any, n int) {
	l := a0.(*Link)
	re := 1 - n
	pkt := a1.(*packet.Packet)
	if l.down[re] && l.dropInFlight {
		l.cold.inFlightDrops[re]++
		packet.Done(pkt)
		return
	}
	if !l.holds[re] {
		packet.Detach(pkt)
	}
	l.recv[re].Receive(int(l.port[re]), pkt)
}
