package core

import (
	"time"

	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/sim"
)

// CompareNodeConfig parameterises the data-plane compare deployment — the
// stand-in for the paper's dedicated C process on host h3.
type CompareNodeConfig struct {
	// Name is the node name.
	Name string
	// Engine is the decision-core configuration.
	Engine Config
	// PerCopyCost is the CPU time to receive, hash and match one copy
	// (the memcmp path of the C prototype). It is the resource that
	// bounds Central3/Central5 throughput in the evaluation.
	PerCopyCost time.Duration
	// QueueLimit bounds the ingest queue in copies (zero = unbounded).
	QueueLimit int
	// NoBufferIsolation disables the per-router ingest quota. The paper
	// requires isolation ("In order to prevent resource attacks on this
	// structure, the different buffers should be (logically) isolated",
	// §IV): with isolation on (the default), one router can occupy at
	// most QueueLimit/K of the ingest queue, so a flooding router cannot
	// crowd out the honest majority's copies. The flag exists for the
	// ablation that demonstrates the attack.
	NoBufferIsolation bool
	// CleanupPerEntry is the CPU stall charged per cache entry scanned
	// by a cleanup pass — the jitter mechanism of Fig. 8. Zero charges
	// nothing.
	CleanupPerEntry time.Duration
	// BlockDuration is how long a DoS-flagged router port is blocked at
	// the edge (§IV case 2). Zero disables blocking.
	BlockDuration time.Duration
}

// DefaultCleanupPerEntry is the calibrated CleanupPerEntry; Middlebox,
// VirtualEdge and the controller's CompareApp have no field and charge it.
const DefaultCleanupPerEntry = 500 * time.Nanosecond

// Alarm is a security event surfaced to the operator.
type Alarm struct {
	Kind   EventKind
	Edge   int
	Router int
	At     time.Duration
	Copies int
}

// Alarm is the alarm an engine event raises on the given edge at time at.
func (ev Event) Alarm(edge int, at time.Duration) Alarm {
	return Alarm{Kind: ev.Kind, Edge: edge, Router: ev.Port, At: at, Copies: ev.Copies}
}

// CompareStats aggregates node-level counters on top of the engine's.
type CompareStats struct {
	// IngestDrops counts copies lost to a full ingest queue;
	// QuotaDrops those rejected by a single port's isolation quota.
	IngestDrops uint64
	QuotaDrops  uint64
	// Blocks counts block advisories sent to edges.
	Blocks uint64
	// Alarms counts alarms raised.
	Alarms uint64
	// DownDrops counts copies that arrived while the node was crashed.
	DownDrops uint64
	// Crashes and Restarts count lifecycle transitions.
	Crashes  uint64
	Restarts uint64
}

// CompareNode is the compare element deployed in the data plane, attached
// to the combiner's edges over dedicated links. Node port i must connect
// to the edge with EdgeID i; each direction of the combiner gets its own
// engine (the frames of the two directions can never match anyway), while
// the CPU (one Proc) is shared, as in the single-process C prototype.
type CompareNode struct {
	cfg   CompareNodeConfig
	sched *sim.Scheduler
	ports netem.Ports
	proc  *netem.Proc

	// engines holds one engine per direction, indexed by edge id, created
	// on first ingest; a restart nils the slots.
	engines []*Engine
	edges   map[int]*EdgeSwitch
	// backlog tracks the per-(edge, router) ingest backlog, indexed
	// densely by edgeID*2*MaxK + compare ingress port and grown on
	// demand.
	backlog []int32

	// OnAlarm, when non-nil, receives port-silence and detection alarms
	// ("this raises an alarm to the network administrator", §IV).
	OnAlarm func(Alarm)

	// OnRelease, when non-nil, observes every frame the compare releases
	// back toward an edge, before encapsulation. The wire slice aliases
	// engine-owned storage and is only valid for the duration of the
	// call; observers must copy what they keep. The harness's invariant
	// oracles tap the egress stream here.
	OnRelease func(edgeID int, wire []byte)

	// framePool holds the PacketOut frames sent back to the edges; the
	// edge ends its hold on one after decapsulating the release.
	framePool packet.Pool

	stats CompareStats
	// sweep is the periodic expiry pass, every HoldTimeout/2.
	sweep *sim.Ticker

	// down is the crash state; flushed accumulates the engine counters of
	// directions whose caches a restart discarded, so EngineStats stays an
	// observation of the whole run.
	down    bool
	flushed Stats
}

var _ netem.Node = (*CompareNode)(nil)

// NewCompareNode creates a compare and starts its periodic expiry sweep.
// Call Close when discarding the node before the simulation ends.
func NewCompareNode(sched *sim.Scheduler, cfg CompareNodeConfig) *CompareNode {
	cfg.Engine = cfg.Engine.withDefaults()
	c := &CompareNode{
		cfg:   cfg,
		sched: sched,
		proc:  netem.NewProc(sched, cfg.PerCopyCost, cfg.QueueLimit),
		edges: make(map[int]*EdgeSwitch),
	}
	c.ports.HonourHolds()
	c.startSweep()
	return c
}

// Name implements netem.Node.
func (c *CompareNode) Name() string { return c.cfg.Name }

// Ports implements netem.Node.
func (c *CompareNode) Ports() *netem.Ports { return &c.ports }

// Stats returns node-level counters.
func (c *CompareNode) Stats() CompareStats { return c.stats }

// EngineStats returns the merged engine counters across directions,
// including those of cache generations flushed by a restart.
func (c *CompareNode) EngineStats() Stats {
	total := c.flushed
	for _, e := range c.engines {
		if e == nil {
			continue
		}
		s := e.Stats()
		total.Ingested += s.Ingested
		total.Released += s.Released
		total.LateCopies += s.LateCopies
		total.Suppressed += s.Suppressed
		total.DoSFlagged += s.DoSFlagged
		total.Detections += s.Detections
		total.CleanupPasses += s.CleanupPasses
		total.CleanupScanned += s.CleanupScanned
	}
	return total
}

// RegisterEdge associates an edge with the node port of the same index so
// that block advisories can be delivered. It must be called for each edge
// after wiring.
func (c *CompareNode) RegisterEdge(edgeID int, edge *EdgeSwitch) {
	c.edges[edgeID] = edge
}

// Close stops the periodic sweep.
func (c *CompareNode) Close() { c.sweep.Stop() }

// Crash models the compare process dying: copies arriving while down are
// dropped, everything queued for the CPU dies with it, and the periodic
// expiry sweep stops. The match caches are flushed on Restart, not here —
// a dead process holds no state either way, but flushing late keeps the
// engine counters intact until they are folded into the run totals.
func (c *CompareNode) Crash() {
	if c.down {
		return
	}
	c.down = true
	c.stats.Crashes++
	c.proc.Reset()
	for i := range c.backlog {
		c.backlog[i] = 0
	}
	c.sweep.Stop()
}

// Restart brings the compare back with flushed caches: every direction's
// engine — held copies, match state, DoS counters — is discarded and will
// be recreated empty on first ingest (counters are folded into the run
// totals first), the per-router quotas are clear, and the expiry sweep
// re-arms. Packets whose copies died in the flush are simply lost; the
// sources retransmit, which is the recovery the availability oracles
// measure.
func (c *CompareNode) Restart() {
	if !c.down {
		return
	}
	c.down = false
	c.stats.Restarts++
	c.flushed = c.EngineStats()
	clear(c.engines)
	c.startSweep()
}

func (c *CompareNode) startSweep() {
	c.sweep = c.sched.Every(c.cfg.Engine.HoldTimeout/2, func() {
		// Ascending edge order fixes the relative order of the two
		// directions' expiry events (and thus alarm order).
		for _, eng := range c.engines {
			if eng != nil {
				eng.Expire(c.sched.Now())
			}
		}
	})
}

func (c *CompareNode) engineFor(edgeID int) *Engine {
	if edgeID >= len(c.engines) {
		c.engines = append(c.engines, make([]*Engine, edgeID+1-len(c.engines))...)
	}
	eng := c.engines[edgeID]
	if eng == nil {
		eng = NewEngine(c.cfg.Engine)
		eng.OnEvent = func(ev Event) { c.handle(edgeID, ev) }
		c.engines[edgeID] = eng
	}
	return eng
}

// Receive implements netem.Receiver: node port = edge id; the frame is a
// compare-channel PacketIn.
//
// The decapsulated wire bytes are threaded straight through to the engine:
// copies are hashed and byte-compared from the bytes the edge already
// marshalled, never re-parsed or re-marshalled.
//
// Quota accounting is increment-after-accept: backlog[quotaKey]++ runs
// after Submit returns true, and the decrement runs inside the submitted
// closure. The scheduler is a single logical thread — Submit only enqueues
// a future event, it never runs the closure synchronously — so the closure
// (and its decrement) cannot fire between the accept and the increment,
// and the counter exactly tracks copies in flight. CompareNodeQuota tests
// pin this down.
func (c *CompareNode) Receive(port int, frame *packet.Packet) {
	if c.down {
		c.stats.DownDrops++
		packet.Done(frame)
		return
	}
	inPort, _, err := decapPacketIn(frame)
	if err != nil {
		packet.Done(frame)
		return
	}
	quotaKey := port*2*MaxK + inPort
	if quotaKey >= len(c.backlog) {
		c.backlog = append(c.backlog, make([]int32, quotaKey+1-len(c.backlog))...)
	}
	if !c.cfg.NoBufferIsolation && c.cfg.QueueLimit > 0 && c.cfg.Engine.K > 0 {
		if int(c.backlog[quotaKey]) >= c.cfg.QueueLimit/c.cfg.Engine.K {
			c.stats.QuotaDrops++
			packet.Done(frame)
			return
		}
	}
	if !c.proc.SubmitArgs(compareServe, c, frame, port) {
		c.stats.IngestDrops++
		packet.Done(frame)
		return
	}
	c.backlog[quotaKey]++
}

// compareServe is the deferred half of Receive. It re-decapsulates the
// frame (a header parse over bytes already in cache — cheaper than
// carrying the decoded form through an allocation), runs the decrement
// half of the quota accounting, and finally ends its hold on the
// encapsulation frame: the engine copies the wire bytes it keeps, so the
// frame's point-to-point life ends here.
func compareServe(a0, a1 any, port int) {
	c := a0.(*CompareNode)
	frame := a1.(*packet.Packet)
	inPort, wire, err := decapPacketIn(frame)
	if err != nil {
		packet.Done(frame)
		return
	}
	c.backlog[port*2*MaxK+inPort]--
	c.engineFor(port).Ingest(c.sched.Now(), inPort%MaxK, wire, nil)
	packet.Done(frame)
}

// handle acts on one engine verdict for the direction edgeID. A suppressed
// packet simply never leaves the compare; the engine's counters record it.
func (c *CompareNode) handle(edgeID int, ev Event) {
	switch ev.Kind {
	case EventRelease:
		// "A single copy of the packet is sent back to the switch,
		// which then forwards it according to the decision the
		// majority of the r_i made" (§IV). The engine hands back the
		// stored wire form, so the release path is a copy, not a
		// re-marshal.
		if c.OnRelease != nil {
			c.OnRelease(edgeID, ev.Wire)
		}
		c.ports.Send(edgeID, encapPacketOutInto(c.framePool.Get(), ev.Wire))
	case EventDoS, EventPortSilent, EventDetection:
		if edge := c.edges[edgeID]; ev.Kind == EventDoS && c.cfg.BlockDuration > 0 && edge != nil {
			edge.BlockRouter(ev.Port, c.cfg.BlockDuration)
			c.stats.Blocks++
		}
		c.alarm(ev.Alarm(edgeID, c.sched.Now()))
	case EventCleanup:
		c.proc.Stall(time.Duration(ev.Copies) * c.cfg.CleanupPerEntry)
	}
}

func (c *CompareNode) alarm(a Alarm) {
	c.stats.Alarms++
	if c.OnAlarm != nil {
		c.OnAlarm(a)
	}
}
