// Package controller provides SDN control-plane applications: a
// controller-resident compare reproducing the paper's POX3 baseline,
// topology discovery with shortest-path MAC-destination routing
// (L2Routing), and a statistics poller (Monitor) that wraps either.
// Every app installs permanent rules: a switch's rules change only by
// install and by crash.
package controller

import (
	"time"

	"netco/internal/core"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
)

// CompareAppConfig parameterises the controller-resident compare — the
// paper's POX3 baseline, where the compare runs "as a SDN application
// running on the POX controller instead of h3" (§V-A).
type CompareAppConfig struct {
	// Engine configures the decision core (Engine.K is forced per
	// datapath by ConfigureDatapath).
	Engine core.Config
	// PerCopyCost is the interpreter cost per copy. The paper explains
	// POX3's poor showing by "precompiled C code is generally executed
	// much faster than interpreted Python"; the default (10× the C
	// compare's calibrated cost) encodes exactly that factor.
	PerCopyCost time.Duration
	// QueueLimit bounds the controller's processing backlog in copies.
	QueueLimit int
}

// dpState is the app's per-switch knowledge.
type dpState struct {
	conn        *switching.Conn
	hostPort    uint16
	routerPorts []uint16
	routerIdx   map[uint16]int
	macTable    map[packet.MAC]uint16
	engine      *core.Engine
	// sweep is the periodic expiry pass, started when the switch connects.
	sweep *sim.Ticker
}

// CompareApp is the POX-style compare: edge switches punt every router
// copy to the controller (output:CONTROLLER rules installed on connect),
// the app performs the majority decision, and releases with PacketOut.
// Every copy therefore pays the control-channel latency twice plus the
// interpreter cost — the two factors §V-B blames for POX3's performance.
type CompareApp struct {
	cfg   CompareAppConfig
	sched *sim.Scheduler
	proc  *netem.Proc

	dps map[uint64]*dpState

	// OnAlarm receives DoS / port-silence / detection alarms.
	OnAlarm func(core.Alarm)

	// Stats.
	PacketIns  uint64
	PacketOuts uint64
	Overloads  uint64 // copies dropped by the controller's queue
}

var _ switching.Controller = (*CompareApp)(nil)

// NewCompareApp creates the app. ConfigureDatapath must be called for
// every edge switch before it connects.
func NewCompareApp(sched *sim.Scheduler, cfg CompareAppConfig) *CompareApp {
	return &CompareApp{
		cfg:   cfg,
		sched: sched,
		proc:  netem.NewProc(sched, cfg.PerCopyCost, cfg.QueueLimit),
		dps:   make(map[uint64]*dpState),
	}
}

// ConfigureDatapath declares one edge switch: its host-facing port, its
// router ports in router-index order, and the MAC table used to forward
// released packets.
func (a *CompareApp) ConfigureDatapath(dpid uint64, hostPort uint16, routerPorts []uint16, macTable map[packet.MAC]uint16) {
	engCfg := a.cfg.Engine
	engCfg.K = len(routerPorts)
	st := &dpState{
		hostPort:    hostPort,
		routerPorts: append([]uint16(nil), routerPorts...),
		routerIdx:   make(map[uint16]int, len(routerPorts)),
		macTable:    macTable,
		engine:      core.NewEngine(engCfg),
	}
	st.engine.OnEvent = func(ev core.Event) { a.handle(st, ev) }
	for i, p := range routerPorts {
		st.routerIdx[p] = i
	}
	a.dps[dpid] = st
}

// Engine returns the decision core for a datapath (for tests and stats).
func (a *CompareApp) Engine(dpid uint64) *core.Engine {
	if st := a.dps[dpid]; st != nil {
		return st.engine
	}
	return nil
}

// SwitchConnected implements switching.Controller: it installs the edge
// rules — replicate host traffic to every router, punt router traffic to
// the controller.
func (a *CompareApp) SwitchConnected(conn *switching.Conn, features openflow.FeaturesReply) {
	st, ok := a.dps[features.DatapathID]
	if !ok {
		return
	}
	st.conn = conn

	// Fan-out actions in router-index order for determinism.
	ordered := make([]openflow.Action, 0, len(st.routerPorts))
	for _, port := range st.routerPorts {
		ordered = append(ordered, openflow.Output(port))
	}
	conn.InstallFlow(openflow.FlowMod{
		Match:    openflow.MatchAll().WithInPort(st.hostPort),
		Priority: 100,
		Actions:  ordered,
	})
	for _, port := range st.routerPorts {
		conn.InstallFlow(openflow.FlowMod{
			Match:    openflow.MatchAll().WithInPort(port),
			Priority: 100,
			Actions:  []openflow.Action{openflow.OutputController(0xffff)},
		})
	}
	// (Re)start the periodic expiry sweep for this datapath.
	if st.sweep != nil {
		st.sweep.Stop()
	}
	st.sweep = a.sched.Every(st.engine.Config().HoldTimeout/2, func() {
		st.engine.Expire(a.sched.Now())
	})
}

// Close stops the periodic expiry sweeps so a finished simulation's event
// queue can drain.
func (a *CompareApp) Close() {
	for _, st := range a.dps {
		if st.sweep != nil {
			st.sweep.Stop()
		}
	}
}

// Handle implements switching.Controller.
func (a *CompareApp) Handle(conn *switching.Conn, msg openflow.Message, xid uint32) {
	pin, ok := msg.(openflow.PacketIn)
	if !ok {
		return
	}
	st := a.dps[conn.DatapathID()]
	if st == nil {
		return
	}
	a.PacketIns++
	if !a.proc.Submit(func() { a.process(st, pin) }) {
		a.Overloads++
	}
}

func (a *CompareApp) process(st *dpState, pin openflow.PacketIn) {
	idx, ok := st.routerIdx[pin.InPort]
	if !ok {
		return
	}
	pkt, err := packet.Unmarshal(pin.Data)
	if err != nil {
		return
	}
	st.engine.Ingest(a.sched.Now(), idx, pin.Data, pkt)
}

func (a *CompareApp) handle(st *dpState, ev core.Event) {
	switch ev.Kind {
	case core.EventRelease:
		out, ok := st.macTable[ev.Pkt.Eth.Dst]
		if !ok {
			out = st.hostPort
		}
		a.PacketOuts++
		st.conn.PacketOut(out, ev.Pkt.Marshal())
	case core.EventDoS, core.EventPortSilent, core.EventDetection:
		if a.OnAlarm != nil {
			a.OnAlarm(ev.Alarm(0, a.sched.Now()))
		}
	case core.EventCleanup:
		a.proc.Stall(time.Duration(ev.Copies) * core.DefaultCleanupPerEntry)
	}
}
