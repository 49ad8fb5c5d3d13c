package traffic

import (
	"encoding/binary"
	"math"
	"time"

	"netco/internal/metrics"
	"netco/internal/packet"
	"netco/internal/sim"
)

// udpHeaderOverhead is the sequencing header the source prepends to every
// datagram payload: sequence number (4) + send timestamp (8).
const udpHeaderOverhead = 12

// UDPSourceConfig parameterises a constant-bit-rate sender, the iperf -u
// -b equivalent.
type UDPSourceConfig struct {
	// Rate is the target offered load in bits per second (of UDP
	// payload, like iperf's -b accounting).
	Rate float64
	// PayloadSize is the datagram payload in bytes (iperf default 1470).
	PayloadSize int
	// TickInterval is the pacing granularity: each tick emits a
	// back-to-back burst of the datagrams accumulated since the last
	// one, reproducing the timer-coalescing burstiness of a real
	// user-space sender. Zero or negative takes the default, 1 ms.
	TickInterval time.Duration
	// Jitter adds ±Jitter/2 uniform noise to tick times (deterministic
	// via Rng); zero disables.
	Jitter time.Duration
	// Rng drives tick jitter.
	Rng *sim.RNG
}

// UDPSource paces datagrams from a host to a destination endpoint.
type UDPSource struct {
	cfg   UDPSourceConfig
	sched *sim.Scheduler
	host  *Host
	src   packet.Endpoint
	dst   packet.Endpoint

	seq     uint32
	carry   float64
	running bool
	timer   sim.Timer
	tickFn  func() // s.tick, bound once: a tick allocates nothing

	// Sent counts datagrams handed to the NIC.
	Sent uint64
	// SentBytes counts payload bytes offered.
	SentBytes uint64
}

// NewUDPSource creates a source sending from host's srcPort to dst.
func NewUDPSource(host *Host, srcPort uint16, dst packet.Endpoint, cfg UDPSourceConfig) *UDPSource {
	if cfg.PayloadSize < udpHeaderOverhead {
		cfg.PayloadSize = udpHeaderOverhead
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = time.Millisecond
	}
	s := &UDPSource{
		cfg:   cfg,
		sched: host.sched,
		host:  host,
		src:   host.Endpoint(srcPort),
		dst:   dst,
	}
	s.tickFn = s.tick
	s.SetRate(cfg.Rate)
	return s
}

// Start begins pacing until Stop (or forever).
func (s *UDPSource) Start() {
	if s.running {
		return
	}
	s.running = true
	s.scheduleTick()
}

// Stop halts the source.
func (s *UDPSource) Stop() {
	s.running = false
	s.timer.Stop()
}

// SetRate retargets the offered load in bits per second mid-run — the
// hook flow promotion uses to drive a packet expander at the fluid
// tier's allocation. Negative, NaN and infinite rates clamp to zero (an
// infinite datagram carry could never become finite again); the change
// takes effect from the next pacing tick.
func (s *UDPSource) SetRate(bps float64) {
	if bps < 0 || math.IsNaN(bps) || math.IsInf(bps, 0) {
		bps = 0
	}
	s.cfg.Rate = bps
}

// Rate returns the current target offered load in bits per second.
func (s *UDPSource) Rate() float64 { return s.cfg.Rate }

func (s *UDPSource) scheduleTick() {
	d := s.cfg.TickInterval
	if s.cfg.Jitter > 0 && s.cfg.Rng != nil {
		d += time.Duration((s.cfg.Rng.Float64() - 0.5) * float64(s.cfg.Jitter))
	}
	s.timer = s.sched.After(d, s.tickFn)
}

func (s *UDPSource) tick() {
	if !s.running {
		return
	}
	// Datagrams owed this tick, carrying the fractional remainder.
	s.carry += s.cfg.Rate * s.cfg.TickInterval.Seconds() / float64(s.cfg.PayloadSize*8)
	n := int(s.carry)
	s.carry -= float64(n)
	for i := 0; i < n; i++ {
		s.sendOne()
	}
	s.scheduleTick()
}

func (s *UDPSource) sendOne() {
	payload := make([]byte, s.cfg.PayloadSize)
	binary.BigEndian.PutUint32(payload[0:4], s.seq)
	binary.BigEndian.PutUint64(payload[4:12], uint64(s.sched.Now()))
	fillPattern(payload[udpHeaderOverhead:], s.seq)
	s.seq++
	s.Sent++
	s.SentBytes += uint64(s.cfg.PayloadSize)
	s.host.Send(packet.NewUDP(s.src, s.dst, payload))
}

// patternWords is one period of the payload pattern, byte i being
// byte(i*131>>3)^byte(i) — which repeats every 2,048 bytes — packed eight
// to a little-endian word.
var patternWords = func() (t [256]uint64) {
	for i := 0; i < 2048; i++ {
		t[i/8] |= uint64(byte(i*131>>3)^byte(i)) << (i % 8 * 8)
	}
	return
}()

// fillPattern writes a deterministic sequence-derived pattern so sinks
// can detect payload tampering end to end: byte i is the pattern byte
// XORed with the low byte of seq, written eight bytes per step.
func fillPattern(b []byte, seq uint32) {
	s := uint64(byte(seq)) * 0x0101010101010101
	var w uint8 // wraps with the period
	for ; len(b) >= 8; b, w = b[8:], w+1 {
		binary.LittleEndian.PutUint64(b, patternWords[w]^s)
	}
	var last [8]byte
	binary.LittleEndian.PutUint64(last[:], patternWords[w]^s)
	copy(b, last[:]) // the last 0–7 bytes
}

func patternOK(b []byte, seq uint32) bool {
	s := uint64(byte(seq)) * 0x0101010101010101
	var w uint8 // wraps with the period
	for ; len(b) >= 8; b, w = b[8:], w+1 {
		if binary.LittleEndian.Uint64(b) != patternWords[w]^s {
			return false
		}
	}
	var last [8]byte
	copy(last[:], b) // the last 0–7 bytes, against the word's low ones
	return binary.LittleEndian.Uint64(last[:]) == (patternWords[w]^s)&(1<<(8*len(b))-1)
}

// UDPSinkStats is what the sink measured.
type UDPSinkStats struct {
	// Unique counts distinct sequence numbers received; Duplicates the
	// extra copies (Dup3 delivers ≈ 3 copies of everything).
	Unique     uint64
	Duplicates uint64
	// UniqueBytes counts payload bytes of unique datagrams.
	UniqueBytes uint64
	// Reordered counts arrivals with a sequence number lower than the
	// highest already seen.
	Reordered uint64
	// Corrupted counts datagrams whose payload pattern did not match
	// what the source generated — end-to-end integrity evidence of
	// in-flight tampering.
	Corrupted uint64
	// Jitter is the RFC 3550 estimate over first copies.
	Jitter time.Duration
	// First and Last bound the receive interval.
	First, Last time.Duration
}

// LossRate returns the fraction of sent datagrams never received (any
// copy), given the source's sent counter.
func (s UDPSinkStats) LossRate(sent uint64) float64 {
	if sent == 0 {
		return 0
	}
	lost := float64(sent) - float64(s.Unique)
	if lost < 0 {
		lost = 0
	}
	return lost / float64(sent)
}

// Goodput returns the unique-payload throughput in bits per second over
// the observation interval.
func (s UDPSinkStats) Goodput() float64 {
	return metrics.Throughput(s.UniqueBytes, s.Last-s.First)
}

// UDPSink receives and de-duplicates datagrams on a host port, measuring
// loss, duplication, reordering and jitter.
type UDPSink struct {
	sched  *sim.Scheduler
	seen   seqSet
	maxSeq uint32
	hasMax bool
	jitter metrics.Jitter
	stats  UDPSinkStats
}

// NewUDPSink attaches a sink to host's port.
func NewUDPSink(host *Host, port uint16) *UDPSink {
	sink := &UDPSink{sched: host.sched}
	host.HandleUDP(port, sink.receive)
	return sink
}

func (k *UDPSink) receive(pkt *packet.Packet) {
	if len(pkt.Payload) < udpHeaderOverhead {
		return
	}
	now := k.sched.Now()
	seq := binary.BigEndian.Uint32(pkt.Payload[0:4])
	sent := time.Duration(binary.BigEndian.Uint64(pkt.Payload[4:12]))

	if !patternOK(pkt.Payload[udpHeaderOverhead:], seq) {
		k.stats.Corrupted++
		return
	}
	if !k.seen.add(seq) {
		k.stats.Duplicates++
		return
	}
	k.stats.Unique++
	k.stats.UniqueBytes += uint64(len(pkt.Payload))
	if k.stats.First == 0 && k.stats.Unique == 1 {
		k.stats.First = now
	}
	k.stats.Last = now
	if k.hasMax && seq < k.maxSeq {
		k.stats.Reordered++
	}
	if !k.hasMax || seq > k.maxSeq {
		k.maxSeq = seq
		k.hasMax = true
	}
	k.jitter.Sample(now - sent)
}

// Stats returns a snapshot of the measurements.
func (k *UDPSink) Stats() UDPSinkStats {
	out := k.stats
	out.Jitter = k.jitter.Value()
	return out
}

// seqSet is the set of sequence numbers a sink has seen: a bitmap in
// pages of seqPageBits, allocated as sequence numbers reach them. A
// source counts up from zero, so nearly every arrival lands in the page
// the previous one did and costs one word test; a forged far-away number
// costs one page, not a bitmap spanning the gap.
type seqSet struct {
	last    *seqPage // page of the previous add
	lastKey uint32
	pages   map[uint32]*seqPage
}

const seqPageBits = 1 << 12

type seqPage [seqPageBits / 64]uint64

// add inserts seq and reports whether it was absent.
func (s *seqSet) add(seq uint32) bool {
	key := seq / seqPageBits
	pg := s.last
	if pg == nil || key != s.lastKey {
		pg = s.pages[key]
		if pg == nil {
			if s.pages == nil {
				s.pages = make(map[uint32]*seqPage)
			}
			pg = new(seqPage)
			s.pages[key] = pg
		}
		s.last, s.lastKey = pg, key
	}
	w, bit := &pg[seq%seqPageBits/64], uint64(1)<<(seq%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}
