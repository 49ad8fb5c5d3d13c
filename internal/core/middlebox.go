package core

import (
	"time"

	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/sim"
)

// MiddleboxConfig parameterises an inline compare — the §IX alternative
// architecture: "implement the compare function inband, as a middlebox
// or NFV function".
type MiddleboxConfig struct {
	// Name is the node name.
	Name string
	// K is the combiner parallelism; copies arrive VLAN-labelled with
	// tagBase+routerIndex (the trusted edge applies the label so the
	// middlebox can attribute copies to routers — without attribution a
	// single router could fake a majority by sending k copies).
	K int
	// Engine configures the decision core (Engine.K forced to K).
	Engine Config
	// PerCopyCost is the compare CPU cost per copy; QueueLimit bounds
	// the ingest queue.
	PerCopyCost time.Duration
	QueueLimit  int
}

// MiddleboxStats counts middlebox activity.
type MiddleboxStats struct {
	// Combined counts packets released toward the host side;
	// PassedThrough counts host-side packets forwarded unmodified.
	Combined      uint64
	PassedThrough uint64
	// Unattributed counts network-side packets without a valid
	// attribution label (never combined — see MiddleboxConfig.K).
	Unattributed uint64
}

// Middlebox ports.
const (
	// MiddleboxNetPort faces the combiner (tagged copies in, plain
	// traffic out); MiddleboxHostPort faces the protected host.
	MiddleboxNetPort  = 0
	MiddleboxHostPort = 1
)

// Middlebox is a bump-in-the-wire compare: copies flow *through* it
// rather than detouring to an out-of-band server, so it adds no extra
// links, and each direction of a connection is served by its own
// middlebox CPU. It is the efficient alternative the paper's conclusion
// anticipates; the InlineCombiner experiments quantify the gain.
type Middlebox struct {
	cfg   MiddleboxConfig
	sched *sim.Scheduler
	ports netem.Ports
	proc  *netem.Proc

	engine *Engine
	// wireBuf is marshal scratch; the engine copies ingested wire bytes,
	// so the buffer is reused across copies.
	wireBuf []byte

	// OnAlarm receives DoS / silence alarms from the engine.
	OnAlarm func(Alarm)

	stats MiddleboxStats
	sweep *sim.Ticker
}

var _ netem.Node = (*Middlebox)(nil)

// NewMiddlebox creates an inline compare and starts its expiry sweep;
// Close stops it.
func NewMiddlebox(sched *sim.Scheduler, cfg MiddleboxConfig) *Middlebox {
	cfg.Engine.K = cfg.K
	m := &Middlebox{
		cfg:    cfg,
		sched:  sched,
		proc:   netem.NewProc(sched, cfg.PerCopyCost, cfg.QueueLimit),
		engine: NewEngine(cfg.Engine),
	}
	m.engine.OnEvent = m.handle
	m.sweep = sched.Every(m.engine.Config().HoldTimeout/2, func() {
		m.engine.Expire(m.sched.Now())
	})
	return m
}

// Name implements netem.Node.
func (m *Middlebox) Name() string { return m.cfg.Name }

// Ports implements netem.Node.
func (m *Middlebox) Ports() *netem.Ports { return &m.ports }

// Stats returns the middlebox counters.
func (m *Middlebox) Stats() MiddleboxStats { return m.stats }

// EngineStats returns the decision core's counters.
func (m *Middlebox) EngineStats() Stats { return m.engine.Stats() }

// Close stops the periodic sweep.
func (m *Middlebox) Close() { m.sweep.Stop() }

// Receive implements netem.Receiver.
func (m *Middlebox) Receive(port int, pkt *packet.Packet) {
	switch port {
	case MiddleboxHostPort:
		// Host-to-network traffic is not ours to vote on; pass it.
		m.stats.PassedThrough++
		m.ports.Send(MiddleboxNetPort, pkt)
	case MiddleboxNetPort:
		m.proc.SubmitArgs(middleboxCombine, m, pkt, 0)
	}
}

func middleboxCombine(a0, a1 any, _ int) {
	a0.(*Middlebox).combine(a1.(*packet.Packet))
}

func (m *Middlebox) combine(pkt *packet.Packet) {
	idx := -1
	if pkt.Eth.VLAN != nil {
		if d := int(pkt.Eth.VLAN.VID) - int(tagBase); d >= 0 && d < m.cfg.K {
			idx = d
		}
	}
	if idx < 0 {
		m.stats.Unattributed++
		return
	}
	stripped := pkt.Clone()
	stripped.Eth.VLAN = nil
	m.wireBuf = stripped.MarshalInto(m.wireBuf[:0])
	m.engine.Ingest(m.sched.Now(), idx, m.wireBuf, stripped)
}

func (m *Middlebox) handle(ev Event) {
	switch ev.Kind {
	case EventRelease:
		m.stats.Combined++
		m.ports.Send(MiddleboxHostPort, ev.Pkt)
	case EventDoS, EventPortSilent, EventDetection:
		if m.OnAlarm != nil {
			m.OnAlarm(ev.Alarm(0, m.sched.Now()))
		}
	case EventCleanup:
		m.proc.Stall(time.Duration(ev.Copies) * DefaultCleanupPerEntry)
	}
}
