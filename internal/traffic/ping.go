package traffic

import (
	"time"

	"netco/internal/metrics"
	"netco/internal/packet"
	"netco/internal/sim"
)

// pingPayload is the echo payload in bytes, as in ping.
const pingPayload = 56

// PingerConfig parameterises an ICMP echo sequence (the ping equivalent
// behind Fig. 7 and Table I's RTT row).
type PingerConfig struct {
	// Count is the number of echo request/response cycles.
	Count int
	// Interval between requests (default 10 ms; classic ping uses 1 s,
	// but virtual time makes the spacing irrelevant beyond isolation).
	Interval time.Duration
	// Timeout marks a request lost (default 1 s).
	Timeout time.Duration
	// ID is the ICMP identifier; distinct pingers on one host need
	// distinct IDs.
	ID uint16
}

// PingResult is the outcome of a sequence.
type PingResult struct {
	// Sent and Received count request/response cycles.
	Sent, Received int
	// Duplicates counts extra replies for already-answered sequences
	// (Dup topologies reply multiple times).
	Duplicates int
	// RTT summarises round-trip times of first replies.
	RTT metrics.Summary
}

// Pinger runs echo sequences from a host to a destination.
type Pinger struct {
	cfg   PingerConfig
	sched *sim.Scheduler
	host  *Host
	dst   packet.Endpoint

	inFlight map[uint16]time.Duration
	answered map[uint16]bool
	result   PingResult
	done     func(PingResult)
	seq      uint16
	started  bool
	stopped  bool
	nextFn   func() // p.sendNext, bound once per pinger, not per request
}

// NewPinger creates a pinger on host toward dst.
func NewPinger(host *Host, dst packet.Endpoint, cfg PingerConfig) *Pinger {
	if cfg.Count == 0 {
		cfg.Count = 1
	}
	if cfg.Interval == 0 {
		cfg.Interval = 10 * time.Millisecond
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = time.Second
	}
	p := &Pinger{
		cfg:      cfg,
		sched:    host.sched,
		host:     host,
		dst:      dst,
		inFlight: make(map[uint16]time.Duration),
		answered: make(map[uint16]bool),
	}
	p.nextFn = p.sendNext
	host.HandleEchoReply(cfg.ID, p.onReply)
	return p
}

// Run starts the sequence; done (optional) fires with the result after
// the last cycle resolves or times out.
func (p *Pinger) Run(done func(PingResult)) {
	if p.started {
		return
	}
	p.started = true
	p.done = done
	p.sendNext()
}

// Start implements Flow: it begins the sequence with no completion
// callback (use Run to get one). Idempotent while running.
func (p *Pinger) Start() { p.Run(nil) }

// Stop halts new requests; cycles already in flight still resolve or
// time out. Idempotent.
func (p *Pinger) Stop() { p.stopped = true }

// Result returns the result so far.
func (p *Pinger) Result() PingResult { return p.result }

func (p *Pinger) sendNext() {
	if p.stopped || p.result.Sent >= p.cfg.Count {
		return
	}
	p.seq++
	seq := p.seq
	p.result.Sent++
	p.inFlight[seq] = p.sched.Now()
	src := p.host.Endpoint(0)
	req := packet.NewICMPEcho(src, p.dst, packet.ICMPEcho, p.cfg.ID, seq, make([]byte, pingPayload))
	p.host.Send(req)

	p.sched.After(p.cfg.Timeout, func() {
		delete(p.inFlight, seq)
		p.maybeFinish()
	})
	p.sched.After(p.cfg.Interval, p.nextFn)
}

func (p *Pinger) onReply(rep *packet.Packet) {
	seq := rep.ICMP.Seq
	if p.answered[seq] {
		p.result.Duplicates++
		return
	}
	sentAt, ok := p.inFlight[seq]
	if !ok {
		return // timed out earlier
	}
	delete(p.inFlight, seq)
	p.answered[seq] = true
	p.result.Received++
	p.result.RTT.AddDuration(p.sched.Now() - sentAt)
	p.maybeFinish()
}

func (p *Pinger) maybeFinish() {
	if p.done != nil && p.result.Sent >= p.cfg.Count && len(p.inFlight) == 0 {
		done := p.done
		p.done = nil
		done(p.result)
	}
}
