package traffic

import (
	"time"

	"netco/internal/metrics"
	"netco/internal/packet"
	"netco/internal/sim"
)

// TCPConfig parameterises a bulk TCP flow (the iperf TCP equivalent).
// The congestion control is NewReno: slow start, congestion avoidance,
// fast retransmit/fast recovery with partial-ACK retransmission, and an
// RFC 6298 retransmission timer. This fidelity matters: the paper's Dup3/
// Dup5 collapse is caused by duplicate segments provoking dup-ACK storms
// and spurious fast retransmits, and its Central numbers by loss-driven
// slow start — both emergent behaviours of this state machine.
type TCPConfig struct {
	// MaxBytes bounds the transfer: the sender offers no new data once
	// MaxBytes have been put on the wire (rounded up to whole segments),
	// so the flow quiesces deterministically once everything is
	// acknowledged. Zero means unbounded (the iperf-style
	// duration-bounded use).
	MaxBytes uint32
}

// The TCP model's fixed parameters, Linux's defaults at the paper's
// time. The receiver ACKs every segment at once: no delayed ACKs.
const (
	// tcpMSS is the maximum segment size in bytes.
	tcpMSS = 1460
	// tcpInitCwndSegments is the initial congestion window.
	tcpInitCwndSegments = 10
	// tcpReceiveWindow is the advertised receive window in bytes,
	// roughly what Linux autotuning opens on a sub-millisecond LAN path.
	// It is ≈10× the testbed's bandwidth-delay product, so it never binds
	// steady-state throughput, but it does bound slow-start overshoot, as
	// a real receiver's window would.
	tcpReceiveWindow = 128 << 10
	// tcpMinRTO floors the retransmission timer.
	tcpMinRTO = 200 * time.Millisecond
	// tcpDupThresh is the duplicate-ACK fast-retransmit threshold.
	tcpDupThresh = 3
)

// TCPStats is a snapshot of a flow's progress.
type TCPStats struct {
	// BytesAcked is the sender's cumulative acknowledged bytes;
	// GoodputBytes the receiver's in-order delivered bytes.
	BytesAcked   uint64
	GoodputBytes uint64
	// SegmentsSent counts first transmissions; Retransmits all
	// retransmissions; FastRetransmits and Timeouts their triggers.
	SegmentsSent    uint64
	Retransmits     uint64
	FastRetransmits uint64
	Timeouts        uint64
	// DupAcksSeen counts duplicate ACKs observed by the sender; DupSegments
	// counts duplicate/old data segments seen by the receiver.
	DupSegments uint64
	DupAcksSeen uint64
	// SRTT is the sender's smoothed RTT estimate.
	SRTT time.Duration
	// CwndBytes is the current congestion window.
	CwndBytes float64
}

// Goodput returns the receiver-side goodput in bits/s over the interval.
func (s TCPStats) Goodput(interval time.Duration) float64 {
	return metrics.Throughput(s.GoodputBytes, interval)
}

// TCPFlow is a unidirectional bulk transfer between two hosts.
type TCPFlow struct {
	sender   *tcpSender
	receiver *tcpReceiver
}

// NewTCPFlow wires a bulk flow between two hosts without sending
// anything yet: both endpoints' handlers are registered immediately, and
// Start launches the transfer. Separating construction from start lets a
// partitioned simulation register the two endpoints during single-
// threaded setup — Start then runs entirely on the sender's scheduler,
// so from and to may live in different partition domains.
func NewTCPFlow(from, to *Host, srcPort, dstPort uint16, cfg TCPConfig) *TCPFlow {
	f := &TCPFlow{}
	f.receiver = newTCPReceiver(to, to.Endpoint(dstPort), from.Endpoint(srcPort))
	f.sender = newTCPSender(from, from.Endpoint(srcPort), to.Endpoint(dstPort), cfg)
	to.HandleTCP(dstPort, f.receiver.onSegment)
	from.HandleTCP(srcPort, f.sender.onAck)
	return f
}

// Start begins the transfer (first transmission burst).
func (f *TCPFlow) Start() { f.sender.sendData() }

// StartTCPFlow wires a bulk flow from one host to another and starts
// sending immediately. srcPort/dstPort identify the flow's 4-tuple.
func StartTCPFlow(from, to *Host, srcPort, dstPort uint16, cfg TCPConfig) *TCPFlow {
	f := NewTCPFlow(from, to, srcPort, dstPort, cfg)
	f.Start()
	return f
}

// Stop freezes the sender (in-flight packets still drain).
func (f *TCPFlow) Stop() { f.sender.stop() }

// Done reports whether a bounded flow (MaxBytes > 0) has offered all its
// data and seen every byte acknowledged. Unbounded flows are never done.
func (f *TCPFlow) Done() bool {
	s := f.sender
	return s.cfg.MaxBytes > 0 && s.sndNxt >= s.cfg.MaxBytes && s.sndUna == s.sndNxt
}

// Stats merges sender and receiver accounting.
func (f *TCPFlow) Stats() TCPStats {
	s := f.sender.stats
	s.GoodputBytes = f.receiver.goodputBytes
	s.DupSegments = f.receiver.dupSegments
	s.SRTT = f.sender.srtt
	s.CwndBytes = f.sender.cwnd
	return s
}

type tcpSender struct {
	cfg   TCPConfig
	sched *sim.Scheduler
	host  *Host
	src   packet.Endpoint
	dst   packet.Endpoint

	sndUna, sndNxt uint32
	// maxSndNxt is the transmission high-water mark: after an RTO rewinds
	// sndNxt (go-back-N), sends below it are retransmissions.
	maxSndNxt      uint32
	cwnd, ssthresh float64
	dupAcks        int
	inRecovery     bool
	recover        uint32
	inflateCap     float64
	stopped        bool

	// RTT estimation (RFC 6298) with Karn's algorithm: one timed
	// segment at a time, never a retransmitted one.
	srtt, rttvar time.Duration
	hasSRTT      bool
	rto          time.Duration
	rttSeq       uint32
	rttStart     time.Duration
	rttPending   bool

	// Pacing (sch_fq-style): transmissions are spread at 2·cwnd/SRTT
	// rather than window-dumped, once an RTT estimate exists.
	nextSend  time.Duration
	paceTimer sim.Timer
	// paceFn is the pacing timer's callback, bound once like onRTOFn.
	paceFn func()

	rtoTimer sim.Timer
	// onRTOFn is s.onRTO bound once: the timer is re-armed on every ACK,
	// and evaluating the method value there would allocate each time.
	onRTOFn func()
	stats   TCPStats
}

func newTCPSender(host *Host, src, dst packet.Endpoint, cfg TCPConfig) *tcpSender {
	s := &tcpSender{
		cfg:      cfg,
		sched:    host.sched,
		host:     host,
		src:      src,
		dst:      dst,
		cwnd:     tcpInitCwndSegments * tcpMSS,
		ssthresh: 1 << 30,
		rto:      tcpMinRTO,
	}
	s.onRTOFn = s.onRTO
	s.paceFn = func() {
		s.paceTimer = sim.Timer{}
		s.sendData()
	}
	return s
}

func (s *tcpSender) stop() {
	s.stopped = true
	s.rtoTimer.Stop()
	s.paceTimer.Stop()
}

func (s *tcpSender) flight() float64 { return float64(s.sndNxt - s.sndUna) }

// sendData transmits new segments while the congestion and receive
// windows allow.
func (s *tcpSender) sendData() {
	if s.stopped {
		return
	}
	wnd := s.cwnd
	if tcpReceiveWindow < wnd {
		wnd = tcpReceiveWindow
	}
	for s.flight()+tcpMSS <= wnd {
		if s.cfg.MaxBytes > 0 && s.sndNxt >= s.cfg.MaxBytes {
			break
		}
		now := s.sched.Now()
		if s.hasSRTT && now < s.nextSend {
			if !s.paceTimer.Scheduled() {
				s.paceTimer = s.sched.At(s.nextSend, s.paceFn)
			}
			break
		}
		retx := s.sndNxt < s.maxSndNxt
		s.transmit(s.sndNxt, retx)
		s.sndNxt += tcpMSS
		if !retx {
			s.stats.SegmentsSent++
			s.maxSndNxt = s.sndNxt
		}
		if s.hasSRTT {
			interval := time.Duration(float64(s.srtt) * tcpMSS / (2 * s.cwnd))
			base := now
			if s.nextSend > base {
				base = s.nextSend
			}
			s.nextSend = base + interval
		}
	}
	s.armRTO()
}

func (s *tcpSender) transmit(seq uint32, isRetransmit bool) {
	if isRetransmit {
		s.stats.Retransmits++
		if s.rttPending && seq <= s.rttSeq {
			s.rttPending = false // Karn: invalidate the timed sample
		}
	} else if !s.rttPending {
		s.rttSeq = seq
		s.rttStart = s.sched.Now()
		s.rttPending = true
	}
	s.host.Send(s.host.pool.TCP(s.src, s.dst, seq, 0, packet.TCPAck, 0xffff, tcpMSS))
}

// armRTO restarts the retransmission timer while data is outstanding.
// It runs on every ACK, so the pending timer is pushed back with Rearm
// rather than stopped and replaced: the scheduler's queue holds one RTO
// entry per connection, not one per ACK of the last RTO interval.
func (s *tcpSender) armRTO() {
	if s.sndNxt == s.sndUna || s.stopped {
		s.rtoTimer.Stop()
		s.rtoTimer = sim.Timer{}
		return
	}
	s.rtoTimer = s.sched.Rearm(s.rtoTimer, s.sched.Now()+s.rto, s.onRTOFn)
}

func (s *tcpSender) onRTO() {
	if s.stopped || s.sndNxt == s.sndUna {
		return
	}
	s.stats.Timeouts++
	s.ssthresh = maxf(s.flight()/2, 2*tcpMSS)
	s.cwnd = tcpMSS
	s.inRecovery = false
	s.dupAcks = 0
	s.rttPending = false
	// Go back N, as BSD TCP does on timeout: everything past sndUna is
	// presumed lost and becomes eligible for retransmission as the window
	// reopens. Without the rewind a multi-segment tail loss (say, a link
	// outage) lingers as phantom flight that blocks new data, and the
	// flow crawls back one segment per doubled RTO.
	s.sndNxt = s.sndUna
	s.transmit(s.sndUna, true)
	s.sndNxt += tcpMSS
	s.rto *= 2
	if s.rto > time.Minute {
		s.rto = time.Minute
	}
	s.armRTO()
}

// onAck processes an incoming (possibly duplicate) acknowledgement.
func (s *tcpSender) onAck(pkt *packet.Packet) {
	if pkt.TCP == nil || pkt.TCP.Flags&packet.TCPAck == 0 || s.stopped {
		return
	}
	ack := pkt.TCP.Ack
	// The acceptable upper bound is the high-water mark, not sndNxt:
	// after a go-back-N rewind the receiver may cumulatively acknowledge
	// data sent before the timeout, above the rewound sndNxt.
	switch {
	case ack > s.sndUna && ack <= s.maxSndNxt:
		s.onNewAck(ack)
	case ack == s.sndUna && s.sndNxt > s.sndUna:
		s.onDupAck()
	}
}

func (s *tcpSender) onNewAck(ack uint32) {
	if s.rttPending && ack > s.rttSeq {
		s.sampleRTT(s.sched.Now() - s.rttStart)
		s.rttPending = false
	}
	acked := float64(ack - s.sndUna)
	s.sndUna = ack
	if s.sndNxt < ack {
		s.sndNxt = ack // the ACK leapfrogged a go-back-N rewind
	}
	s.stats.BytesAcked += uint64(acked)

	const mss = tcpMSS
	if s.inRecovery {
		if ack >= s.recover {
			// Full acknowledgement: leave recovery, deflate.
			s.inRecovery = false
			s.cwnd = s.ssthresh
			s.dupAcks = 0
		} else {
			// Partial acknowledgement (NewReno): retransmit the next
			// hole, deflate by the amount acknowledged.
			s.transmit(s.sndUna, true)
			s.cwnd = maxf(s.cwnd-acked+mss, mss)
		}
	} else {
		s.dupAcks = 0
		if s.cwnd < s.ssthresh {
			s.cwnd += mss // slow start
		} else {
			s.cwnd += mss * mss / s.cwnd // congestion avoidance
		}
	}
	s.armRTO()
	s.sendData()
}

func (s *tcpSender) onDupAck() {
	s.dupAcks++
	s.stats.DupAcksSeen++
	const mss = tcpMSS
	switch {
	case !s.inRecovery && s.dupAcks == tcpDupThresh:
		// Fast retransmit + fast recovery.
		s.stats.FastRetransmits++
		s.ssthresh = maxf(s.flight()/2, 2*mss)
		s.recover = s.sndNxt
		// Inflation can never legitimately exceed the data actually in
		// flight at loss time; the cap keeps duplicated ACK frames (a
		// Dup-path artefact, or an ACK-division attack) from pumping
		// the window arbitrarily.
		s.inflateCap = s.ssthresh + s.flight()
		s.transmit(s.sndUna, true)
		s.cwnd = s.ssthresh + tcpDupThresh*mss
		s.inRecovery = true
	case s.inRecovery:
		// Window inflation: each further dup ACK signals a departure.
		if s.cwnd+mss <= s.inflateCap {
			s.cwnd += mss
		}
		s.sendData()
	}
}

// sampleRTT implements RFC 6298 SRTT/RTTVAR.
func (s *tcpSender) sampleRTT(rtt time.Duration) {
	if !s.hasSRTT {
		s.srtt = rtt
		s.rttvar = rtt / 2
		s.hasSRTT = true
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < tcpMinRTO {
		s.rto = tcpMinRTO
	}
}

type tcpReceiver struct {
	host  *Host
	local packet.Endpoint
	peer  packet.Endpoint

	rcvNxt       uint32
	outOfOrder   map[uint32]int
	goodputBytes uint64
	dupSegments  uint64
}

func newTCPReceiver(host *Host, local, peer packet.Endpoint) *tcpReceiver {
	return &tcpReceiver{
		host:       host,
		local:      local,
		peer:       peer,
		outOfOrder: make(map[uint32]int),
	}
}

func (r *tcpReceiver) onSegment(pkt *packet.Packet) {
	if pkt.TCP == nil || len(pkt.Payload) == 0 {
		return
	}
	seq := pkt.TCP.Seq
	n := len(pkt.Payload)
	switch {
	case seq == r.rcvNxt:
		r.rcvNxt += uint32(n)
		r.goodputBytes += uint64(n)
		// Drain any now-contiguous out-of-order data.
		for {
			ln, ok := r.outOfOrder[r.rcvNxt]
			if !ok {
				break
			}
			delete(r.outOfOrder, r.rcvNxt)
			r.rcvNxt += uint32(ln)
			r.goodputBytes += uint64(ln)
		}
		r.sendAck()
	case seq < r.rcvNxt:
		// Old or duplicate data: immediate duplicate ACK (RFC 5681).
		r.dupSegments++
		r.sendAck()
	default:
		// Hole: buffer and signal with an immediate duplicate ACK.
		if _, dup := r.outOfOrder[seq]; dup {
			r.dupSegments++
		} else {
			r.outOfOrder[seq] = n
		}
		r.sendAck()
	}
}

func (r *tcpReceiver) sendAck() {
	r.host.Send(r.host.pool.TCP(r.local, r.peer, 0, r.rcvNxt, packet.TCPAck, 0xffff, 0))
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
