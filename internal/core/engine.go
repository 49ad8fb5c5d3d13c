// Package core implements the NetCo robust network combiner — the paper's
// contribution. A combiner replaces one untrusted router with:
//
//   - a trusted hub that replicates every packet to k untrusted routers in
//     parallel (Hub, or the ingress half of EdgeSwitch),
//   - the k untrusted routers themselves (ordinary OpenFlow switches from
//     internal/switching, possibly compromised via internal/adversary), and
//   - a trusted compare that forwards a packet only once it has been
//     received from a majority (> ⌊k/2⌋) of the routers (Engine, deployed
//     either as the data-plane CompareNode — the paper's C prototype — or
//     as a controller application — the POX3 baseline).
//
// Two routers suffice to detect misbehaviour (DetectOnly mode), three to
// prevent it (§III). The package also contains the virtualized combiner of
// §VII, which trades the physical parallel routers for VLAN-tagged
// disjoint paths, and the sampling compare sketched in §IX.
package core

import (
	"bytes"
	"time"

	"netco/internal/packet"
)

// Mode selects how the compare decides that two copies are "the same
// packet" (§III: "packets may be compared bit-by-bit, or just based on the
// header, or hashing can be used").
type Mode int

// Compare modes.
const (
	// ModeBitExact stores the full frame and confirms candidate matches
	// with a byte comparison — the memcmp() of the C prototype. Safest.
	ModeBitExact Mode = iota + 1
	// ModeHashed matches on a digest of the full frame, trading a
	// negligible collision risk for not storing packet bodies.
	ModeHashed
	// ModeHeader matches on the L2–L4 headers only: cheapest, detects
	// rerouting/mirroring, but blind to payload tampering.
	ModeHeader
)

// EventKind classifies compare engine outcomes.
type EventKind int

// Engine event kinds.
const (
	// EventRelease: a packet reached majority and must be forwarded once.
	EventRelease EventKind = iota + 1
	// EventDoS: one ingress port delivered the same packet repeatedly
	// (§IV case 2); the combiner should block that port for a while.
	EventDoS
	// EventPortSilent: several consecutive packets were never seen on a
	// port (§IV case 3); the router is presumed unavailable — alarm.
	EventPortSilent
	// EventSuppressed: an entry expired without reaching majority (§IV
	// case 1: rewritten, exfiltrated or unsolicited packets). The packet
	// was never forwarded.
	EventSuppressed
	// EventDetection: in DetectOnly mode, an entry retired without
	// unanimity — evidence that some router dropped or altered the
	// packet.
	EventDetection
	// EventCleanup: the cache exceeded CacheCapacity and a pass is about
	// to retire Copies entries, oldest first; the deployment charges the
	// scan to its CPU — the jitter mechanism of Fig. 8.
	EventCleanup
)

// String names the event kind for logs and alarms.
func (k EventKind) String() string {
	switch k {
	case EventRelease:
		return "release"
	case EventDoS:
		return "dos"
	case EventPortSilent:
		return "port-silent"
	case EventSuppressed:
		return "suppressed"
	case EventDetection:
		return "detection"
	case EventCleanup:
		return "cleanup"
	}
	return "unknown"
}

// Event is one compare engine outcome. Port is meaningful for EventDoS,
// EventPortSilent and EventSuppressed (first port seen); Pkt/Wire for
// EventRelease and EventSuppressed. Pkt and Wire point into engine-owned
// storage and are valid for the duration of the OnEvent call; a handler
// copies what it keeps.
type Event struct {
	Kind EventKind
	Port int
	// Pkt is the parsed frame, when the caller provided one to Ingest.
	Pkt *packet.Packet
	// Wire is the frame's wire form (engine-owned copy for entry-backed
	// events). Data-plane deployments release from Wire directly so
	// parsed packets never need to be re-marshalled.
	Wire []byte
	// Copies is how many copies had arrived when the event fired; for
	// EventCleanup, how many entries the pass scans.
	Copies int
}

// Config parameterises the compare engine.
type Config struct {
	// K is the number of parallel untrusted routers. Each logical packet
	// is expected once per port in [0, K).
	K int
	// Mode selects the equality notion (default ModeBitExact).
	Mode Mode
	// Majority overrides the release threshold (default ⌊K/2⌋+1).
	Majority int
	// DetectOnly releases the first copy immediately and uses the
	// remaining copies only to detect disagreement — the k=2 deployment
	// of §III.
	DetectOnly bool
	// HoldTimeout bounds how long an entry waits for more copies. The
	// paper: "our construction should bound the waiting time ...
	// otherwise it is exposed to denial-of-service attacks" (§IV).
	HoldTimeout time.Duration
	// CacheCapacity bounds the number of cached entries; exceeding it
	// triggers a cleanup pass (the jitter mechanism of Fig. 8). Zero
	// means unbounded.
	CacheCapacity int
	// DoSThreshold is the per-port copy count that flags a DoS (≥ 2
	// copies of the same packet from one port is already misbehaviour;
	// the default is 3 to tolerate benign L2 retransmission quirks).
	DoSThreshold int
	// SilenceThreshold is the number of consecutive retired entries a
	// port may miss before EventPortSilent fires (default 8).
	SilenceThreshold int
}

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ModeBitExact
	}
	if c.Majority == 0 {
		c.Majority = c.K/2 + 1
	}
	if c.DoSThreshold == 0 {
		c.DoSThreshold = 3
	}
	if c.SilenceThreshold == 0 {
		c.SilenceThreshold = 8
	}
	if c.HoldTimeout == 0 {
		c.HoldTimeout = 50 * time.Millisecond
	}
	return c
}

// Stats aggregates engine activity.
type Stats struct {
	// Ingested counts copies offered to the engine.
	Ingested uint64
	// Released counts packets forwarded (each exactly once).
	Released uint64
	// LateCopies counts copies that arrived after their packet was
	// already released ("if additional packets arrive later, they are
	// ignored", §IV).
	LateCopies uint64
	// Suppressed counts entries that expired without majority: the
	// attacks NetCo prevented.
	Suppressed uint64
	// DoSFlagged counts EventDoS occurrences.
	DoSFlagged uint64
	// Detections counts EventDetection occurrences (DetectOnly mode).
	Detections uint64
	// CleanupPasses counts cache cleanups; CleanupScanned the total
	// entries scanned by them.
	CleanupPasses  uint64
	CleanupScanned uint64
}

// entry is one cached packet awaiting majority. Entries are pooled: retire
// recycles them onto the engine's free list, and Ingest reuses them (and
// their wire buffers) instead of allocating, so the steady-state ingest
// path performs no heap allocations.
type entry struct {
	key uint64
	// next links entries in two mutually exclusive states: colliding
	// entries within one key bucket while live, and the engine's free
	// list while recycled.
	next     *entry
	wire     []byte // engine-owned copy of the frame (confirmation + release)
	pkt      *packet.Packet
	seen     [MaxK]uint8 // copies per port
	distinct int
	released bool
	dosSent  bool
	first    time.Duration
	firstPt  int
}

// Engine is the compare decision core: a deterministic state machine with
// no I/O, time injected by the caller. Every deployment (CompareNode,
// Middlebox, VirtualEdge, the controller's CompareApp) feeds one with
// Ingest and Expire and learns every verdict through OnEvent.
type Engine struct {
	cfg Config

	// OnEvent, when non-nil, receives each outcome synchronously, in the
	// order §IV's rules fire inside one Ingest or Expire call: DoS before
	// release; then, if the cache overflowed, EventCleanup before the
	// pass's retirements; per retirement, suppressed or detection before
	// port-silent. The handler must not call back into the engine.
	OnEvent func(Event)

	// entries buckets live entries by key; collisions chain via
	// entry.next (intrusive, so inserting a new key allocates nothing).
	entries map[uint64]*entry
	// fifo holds entries in arrival order for expiry and cleanup scans;
	// a ring, so memory is bounded by the peak number of live entries.
	fifo entryRing

	silent []int // consecutive missed retirements per port

	free *entry // recycled entries

	stats Stats
}

// NewEngine returns an engine for the given configuration. K must not
// exceed MaxK.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.K > MaxK {
		panic("core: engine K exceeds MaxK")
	}
	return &Engine{
		cfg:     cfg,
		entries: make(map[uint64]*entry),
		silent:  make([]int, cfg.K),
	}
}

// entryRing is a FIFO of entries backed by a power-of-two ring buffer.
type entryRing struct {
	buf  []*entry
	head int
	n    int
}

func (r *entryRing) push(en *entry) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = en
	r.n++
}

func (r *entryRing) pop() *entry {
	en := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return en
}

func (r *entryRing) peek() *entry { return r.buf[r.head] }

func (r *entryRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 64
	}
	buf := make([]*entry, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}

// alloc takes an entry from the free list, or allocates one cold.
func (e *Engine) alloc() *entry {
	en := e.free
	if en == nil {
		return &entry{}
	}
	e.free = en.next
	en.next = nil
	return en
}

// recycle resets an entry (keeping its wire buffer's capacity) and pushes
// it onto the free list.
func (e *Engine) recycle(en *entry) {
	wire := en.wire[:0]
	*en = entry{wire: wire, next: e.free}
	e.free = en
}

// Config returns the effective configuration (defaults applied).
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// Size returns the number of live cache entries.
func (e *Engine) Size() int { return e.fifo.n }

func (e *Engine) keyOf(wire []byte, pkt *packet.Packet) uint64 {
	switch e.cfg.Mode {
	case ModeHeader:
		return packet.HeaderKey(pkt)
	default:
		return packet.FastKey(wire)
	}
}

// sameFrame confirms that a candidate entry really holds the same packet.
func (e *Engine) sameFrame(en *entry, wire []byte) bool {
	if e.cfg.Mode != ModeBitExact {
		return true // key equality is the whole test
	}
	return bytes.Equal(en.wire, wire)
}

// Ingest offers one copy received on port at virtual time now. wire is the
// frame's marshalled form and pkt its parsed form. pkt may be nil unless
// Mode is ModeHeader (whose key is computed from parsed headers); the
// data-plane CompareNode exploits this to ingest decapsulated wire bytes
// without re-parsing or re-marshalling them. The engine copies wire into
// entry-owned storage, so callers may reuse their buffer; it never mutates
// either argument. A copy that pushes the cache past CacheCapacity also
// runs the cleanup pass before Ingest returns.
func (e *Engine) Ingest(now time.Duration, port int, wire []byte, pkt *packet.Packet) {
	e.stats.Ingested++
	if port < 0 || port >= e.cfg.K {
		// Unknown ingress: treat as a lone suppressed packet.
		e.stats.Suppressed++
		e.report(Event{Kind: EventSuppressed, Port: port, Pkt: pkt, Wire: wire, Copies: 1})
		return
	}

	key := e.keyOf(wire, pkt)
	var en *entry
	for cand := e.entries[key]; cand != nil; cand = cand.next {
		if e.sameFrame(cand, wire) {
			en = cand
			break
		}
	}

	if en == nil {
		en = e.alloc()
		en.key = key
		en.pkt = pkt
		en.wire = append(en.wire[:0], wire...)
		en.first = now
		en.firstPt = port
		en.next = e.entries[key]
		e.entries[key] = en
		e.fifo.push(en)
	}

	if en.seen[port] < 0xff {
		en.seen[port]++
	}
	if en.seen[port] == 1 {
		en.distinct++
	}

	// DoS: the same port keeps delivering the same packet.
	if int(en.seen[port]) >= e.cfg.DoSThreshold && !en.dosSent {
		en.dosSent = true
		e.stats.DoSFlagged++
		e.report(Event{Kind: EventDoS, Port: port, Pkt: pkt, Wire: en.wire, Copies: int(en.seen[port])})
	}

	if en.released {
		e.stats.LateCopies++
	} else if en.distinct >= e.cfg.Majority || e.cfg.DetectOnly {
		en.released = true
		e.stats.Released++
		e.report(Event{Kind: EventRelease, Port: port, Pkt: en.pkt, Wire: en.wire, Copies: en.distinct})
	}

	if e.cfg.CacheCapacity > 0 && e.fifo.n > e.cfg.CacheCapacity {
		e.cleanup()
	}
}

func (e *Engine) report(ev Event) {
	if e.OnEvent != nil {
		e.OnEvent(ev)
	}
}

// Expire retires entries older than HoldTimeout, reporting suppression,
// detection and port-silence events. Deployments call it periodically.
func (e *Engine) Expire(now time.Duration) {
	cutoff := now - e.cfg.HoldTimeout
	for e.fifo.n > 0 && e.fifo.peek().first <= cutoff {
		e.retire(e.fifo.pop())
	}
}

// retire removes an entry from the cache, accounts for and reports its
// outcome, and recycles it.
func (e *Engine) retire(en *entry) {
	// Unlink from the key bucket's chain.
	if head := e.entries[en.key]; head == en {
		if en.next == nil {
			delete(e.entries, en.key)
		} else {
			e.entries[en.key] = en.next
		}
	} else {
		for cand := head; cand != nil; cand = cand.next {
			if cand.next == en {
				cand.next = en.next
				break
			}
		}
	}
	if !en.released {
		e.stats.Suppressed++
		e.report(Event{Kind: EventSuppressed, Port: en.firstPt, Pkt: en.pkt, Wire: en.wire, Copies: en.distinct})
	} else if e.cfg.DetectOnly && en.distinct < e.cfg.K {
		e.stats.Detections++
		e.report(Event{Kind: EventDetection, Port: en.firstPt, Pkt: en.pkt, Wire: en.wire, Copies: en.distinct})
	}

	// Port-silence accounting: only meaningful for entries that reached
	// majority (a suppressed unique packet says nothing about the other
	// routers — it likely never existed on their paths).
	if en.released {
		for p := 0; p < e.cfg.K; p++ {
			if en.seen[p] > 0 {
				e.silent[p] = 0
				continue
			}
			e.silent[p]++
			if e.silent[p] == e.cfg.SilenceThreshold {
				e.report(Event{Kind: EventPortSilent, Port: p})
			}
		}
	}
	e.recycle(en)
}

// cleanup is the cache-full pass: it retires, oldest first, as many
// entries as bring the cache down to half its capacity (released and
// expired entries go first, being the oldest), announcing the scan length
// first so the deployment can charge a proportional CPU stall.
func (e *Engine) cleanup() {
	scanned := e.fifo.n - e.cfg.CacheCapacity/2
	e.stats.CleanupPasses++
	e.stats.CleanupScanned += uint64(scanned)
	e.report(Event{Kind: EventCleanup, Copies: scanned})
	for ; scanned > 0; scanned-- {
		e.retire(e.fifo.pop())
	}
}
