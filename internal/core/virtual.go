package core

import (
	"time"

	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/sim"
)

// VirtualEdgeConfig parameterises one end of the virtualized combiner of
// §VII: instead of physical parallel routers, flows are split over k
// disjoint *paths* through heterogeneous existing devices, using VLAN
// tags as tunnel labels, and the compare runs inband at the egress edge.
type VirtualEdgeConfig struct {
	// Name is the node name.
	Name string
	// Paths is k: the number of disjoint paths. Path i attaches to node
	// port PathPort(i) and carries VLAN tag Tag(i).
	Paths int
	// Engine configures the inband compare (Engine.K is forced to
	// Paths).
	Engine Config
	// PerCopyCost is the inband compare's CPU cost per arriving copy.
	PerCopyCost time.Duration
	// QueueLimit bounds the compare's ingest queue.
	QueueLimit int
}

// VirtualEdgeStats counts virtual-edge activity.
type VirtualEdgeStats struct {
	// Split counts copies fanned out over the paths.
	Split uint64
	// Combined counts packets released by the inband compare.
	Combined uint64
	// TagViolations counts copies arriving on a path with the wrong
	// tunnel label — evidence of VLAN rewriting in transit.
	TagViolations uint64
	// TableMisses counts releases with no MAC route.
	TableMisses uint64
}

// VirtualEdge is one end of a virtualized combiner. Traffic from the
// protected side (port HostPort) is replicated over the k tagged paths;
// traffic arriving from the paths is label-checked, stripped, and
// majority-combined inband before leaving toward the protected side —
// "splitting a flow into two (for detection) or three (for prevention)
// copies along different segments of the path, using tunneling, has a
// similar effect as in the physical robust combiner approach" (§VII).
type VirtualEdge struct {
	cfg   VirtualEdgeConfig
	sched *sim.Scheduler
	ports netem.Ports
	proc  *netem.Proc

	engine   *Engine
	macTable map[packet.MAC]int
	// wireBuf is marshal scratch; the engine copies ingested wire bytes,
	// so the buffer is reused across copies.
	wireBuf []byte

	// OnAlarm receives DoS / silence / detection alarms from the inband
	// compare.
	OnAlarm func(Alarm)

	stats VirtualEdgeStats
	sweep *sim.Ticker
}

var _ netem.Node = (*VirtualEdge)(nil)

// VirtualHostPort is the protected-side port of a VirtualEdge.
const VirtualHostPort = 0

// PathPort returns the node port for path i.
func (v *VirtualEdge) PathPort(i int) int { return 1 + i }

// NewVirtualEdge creates a virtual combiner edge and starts its expiry
// sweep; Close stops it.
func NewVirtualEdge(sched *sim.Scheduler, cfg VirtualEdgeConfig) *VirtualEdge {
	cfg.Engine.K = cfg.Paths
	v := &VirtualEdge{
		cfg:      cfg,
		sched:    sched,
		proc:     netem.NewProc(sched, cfg.PerCopyCost, cfg.QueueLimit),
		engine:   NewEngine(cfg.Engine),
		macTable: make(map[packet.MAC]int),
	}
	v.engine.OnEvent = v.handle
	v.sweep = sched.Every(v.engine.Config().HoldTimeout/2, func() {
		v.engine.Expire(v.sched.Now())
	})
	return v
}

// Name implements netem.Node.
func (v *VirtualEdge) Name() string { return v.cfg.Name }

// Ports implements netem.Node.
func (v *VirtualEdge) Ports() *netem.Ports { return &v.ports }

// Stats returns the edge counters.
func (v *VirtualEdge) Stats() VirtualEdgeStats { return v.stats }

// EngineStats returns the inband compare's counters.
func (v *VirtualEdge) EngineStats() Stats { return v.engine.Stats() }

// Tag returns the VLAN label of path i.
func (v *VirtualEdge) Tag(i int) uint16 { return tagBase + uint16(i) }

// AddRoute declares that released packets for mac leave via the given
// node port (usually VirtualHostPort).
func (v *VirtualEdge) AddRoute(mac packet.MAC, port int) {
	v.macTable[mac] = port
}

// Close stops the periodic sweep.
func (v *VirtualEdge) Close() { v.sweep.Stop() }

// Receive implements netem.Receiver.
func (v *VirtualEdge) Receive(port int, pkt *packet.Packet) {
	if port == VirtualHostPort {
		v.split(pkt)
		return
	}
	idx := port - 1
	if idx < 0 || idx >= v.cfg.Paths {
		return
	}
	v.proc.SubmitArgs(virtualCombine, v, pkt, idx)
}

func virtualCombine(a0, a1 any, idx int) {
	a0.(*VirtualEdge).combine(idx, a1.(*packet.Packet))
}

// split replicates a protected-side packet over the k tagged paths.
func (v *VirtualEdge) split(pkt *packet.Packet) {
	for i := 0; i < v.cfg.Paths; i++ {
		copyPkt := pkt.Clone()
		copyPkt.Eth.VLAN = &packet.VLANTag{VID: v.Tag(i)}
		if v.ports.Send(v.PathPort(i), copyPkt) {
			v.stats.Split++
		}
	}
}

// combine label-checks and majority-combines one copy arriving from path
// idx.
func (v *VirtualEdge) combine(idx int, pkt *packet.Packet) {
	if pkt.Eth.VLAN == nil || pkt.Eth.VLAN.VID != v.Tag(idx) {
		// Wrong or missing tunnel label: either a device rewrote the
		// VLAN field (the §II isolation attack) or traffic leaked
		// across paths. Never combine it.
		v.stats.TagViolations++
		v.alarm(Alarm{Kind: EventDetection, Router: idx, At: v.sched.Now()})
		return
	}
	stripped := pkt.Clone()
	stripped.Eth.VLAN = nil
	v.wireBuf = stripped.MarshalInto(v.wireBuf[:0])
	v.engine.Ingest(v.sched.Now(), idx, v.wireBuf, stripped)
}

func (v *VirtualEdge) handle(ev Event) {
	switch ev.Kind {
	case EventRelease:
		v.stats.Combined++
		port, ok := v.macTable[ev.Pkt.Eth.Dst]
		if !ok {
			v.stats.TableMisses++
			port = VirtualHostPort
		}
		v.ports.Send(port, ev.Pkt)
	case EventDoS, EventPortSilent, EventDetection:
		v.alarm(ev.Alarm(0, v.sched.Now()))
	case EventCleanup:
		v.proc.Stall(time.Duration(ev.Copies) * DefaultCleanupPerEntry)
	}
}

func (v *VirtualEdge) alarm(a Alarm) {
	if v.OnAlarm != nil {
		v.OnAlarm(a)
	}
}
