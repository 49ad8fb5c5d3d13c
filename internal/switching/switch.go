// Package switching implements the OpenFlow 1.0 switch data plane: flow
// table lookup, action execution, packet-in on table miss, and a modelled
// control channel to the controller that round-trips every message through
// the openflow wire codec.
//
// The same Switch type plays three roles in the reproduction:
//
//   - the untrusted routers r_i inside a combiner (optionally compromised
//     by attaching a Behavior),
//   - the trusted s1/s2 components at the combiner edges (driven by the
//     rules in internal/core), and
//   - the edge/aggregation/core switches of the §VI fat-tree case study.
package switching

import (
	"time"

	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
)

// Behavior lets a compromised switch deviate from its flow table. The
// adversary package provides implementations of the paper's four attack
// classes (§II): rerouting, mirroring, packet modification, and DoS. A
// behavior that also has an Attach(*Switch) method is handed the switch
// once, when SetBehavior installs it (e.g. to schedule unsolicited packet
// generation for DoS attacks).
type Behavior interface {
	// Forward intercepts one forwarding decision. pkt is the received
	// packet (treat as immutable; clone before mutating) and honest is
	// the action list the flow table selected (nil on table miss). The
	// returned packet/action list is executed instead.
	Forward(inPort int, pkt *packet.Packet, honest []openflow.Action) (*packet.Packet, []openflow.Action)
}

// Config parameterises a switch.
type Config struct {
	// Name is the unique node name.
	Name string
	// DatapathID identifies the switch to the controller.
	DatapathID uint64
	// ProcDelay is the per-packet pipeline latency (lookup + action
	// execution). Zero means instantaneous.
	ProcDelay time.Duration
	// ProcQueue bounds the pipeline input queue in packets (zero =
	// unbounded).
	ProcQueue int
}

// PortCounters tracks per-port traffic, the data the §VI case study reads
// when screening for stray packets.
type PortCounters struct {
	RxPackets uint64
	RxBytes   uint64
	TxPackets uint64
	TxBytes   uint64
	RxDropped uint64
}

// Switch is an OpenFlow 1.0 switch node.
type Switch struct {
	cfg   Config
	sched *sim.Scheduler
	ports netem.Ports
	table *openflow.FlowTable
	proc  *netem.Proc

	behavior Behavior
	ctrl     *controllerLink
	nextXid  uint32
	// missSendToController, when set, forwards table-miss packets to the
	// controller as PacketIn messages (OpenFlow 1.0 default behaviour).
	// When clear, misses are dropped — the behaviour of the untrusted
	// routers in the prototype, whose rules are installed proactively.
	missSendToController bool

	// down is the crash state (lifecycle.go): a crashed switch drops all
	// ingress, transmits nothing, and ignores the control channel.
	down bool
	life LifecycleStats

	// Port counters live in a dense slice indexed by port for the
	// per-packet Receive/transmit paths; the map handles negative or
	// absurdly large port numbers (hand-crafted test harnesses only).
	portDense []*PortCounters
	portStats map[int]*PortCounters

	// OnTransmit, when non-nil, observes every packet the switch puts on
	// the wire (after adversarial rewriting), before the port queue, so
	// a send the queue then drops is still seen. The case study counts
	// core transmissions with it (its tcpdump screening), the harness
	// digests router traffic, and the hybrid run sketches region frames.
	// The packet is only valid during the call.
	OnTransmit func(outPort int, pkt *packet.Packet)
}

var _ netem.Node = (*Switch)(nil)

// New creates a switch on the scheduler.
func New(sched *sim.Scheduler, cfg Config) *Switch {
	// portStats (the sparse port-counter fallback) allocates lazily, so
	// the fluid-tier switches of a scaled fabric stay map-free.
	return &Switch{
		cfg:   cfg,
		sched: sched,
		table: openflow.NewFlowTable(sched),
		proc:  netem.NewProc(sched, cfg.ProcDelay, cfg.ProcQueue),
	}
}

// Name implements netem.Node.
func (sw *Switch) Name() string { return sw.cfg.Name }

// Ports implements netem.Node.
func (sw *Switch) Ports() *netem.Ports { return &sw.ports }

// Scheduler returns the simulation scheduler (used by behaviors).
func (sw *Switch) Scheduler() *sim.Scheduler { return sw.sched }

// Table exposes the flow table for proactive rule installation by trusted
// components and tests.
func (sw *Switch) Table() *openflow.FlowTable { return sw.table }

// SetMissSendToController toggles table-miss punting to the controller
// at runtime (OFPC_FRAG-style switch reconfiguration is out of scope;
// this is the one config bit reactive applications need).
func (sw *Switch) SetMissSendToController(on bool) {
	sw.missSendToController = on
}

// SetBehavior installs (or clears) the compromised-forwarding hook, and
// attaches it to the switch if it has an Attach method.
func (sw *Switch) SetBehavior(b Behavior) {
	sw.behavior = b
	if a, ok := b.(interface{ Attach(*Switch) }); ok {
		a.Attach(sw)
	}
}

// maxDensePort bounds the dense counter slice; ports beyond it (never
// produced by topology construction) fall back to the sparse map.
const maxDensePort = 1024

// PortCounters returns the counters for a port (always non-nil). The
// fast path is a bounds check and a slice index — Receive calls this for
// every packet.
func (sw *Switch) PortCounters(port int) *PortCounters {
	if port >= 0 && port < len(sw.portDense) {
		if pc := sw.portDense[port]; pc != nil {
			return pc
		}
	}
	return sw.portCountersSlow(port)
}

// portCountersSlow materialises the counters for a first-touched port.
func (sw *Switch) portCountersSlow(port int) *PortCounters {
	if port < 0 || port >= maxDensePort {
		pc, ok := sw.portStats[port]
		if !ok {
			if sw.portStats == nil {
				sw.portStats = make(map[int]*PortCounters)
			}
			pc = &PortCounters{}
			sw.portStats[port] = pc
		}
		return pc
	}
	if port >= len(sw.portDense) {
		grown := make([]*PortCounters, port+1)
		copy(grown, sw.portDense)
		sw.portDense = grown
	}
	pc := &PortCounters{}
	sw.portDense[port] = pc
	return pc
}

// Receive implements netem.Receiver: the start of the ingress pipeline.
func (sw *Switch) Receive(port int, pkt *packet.Packet) {
	pc := sw.PortCounters(port)
	pc.RxPackets++
	pc.RxBytes += uint64(pkt.WireLen())
	if sw.down {
		pc.RxDropped++
		sw.life.RxWhileDown++
		return
	}
	if !sw.proc.SubmitArgs(switchPipeline, sw, pkt, port) {
		pc.RxDropped++
	}
}

func switchPipeline(a0, a1 any, port int) {
	a0.(*Switch).pipeline(port, a1.(*packet.Packet))
}

// pipeline runs table lookup and action execution for one packet.
func (sw *Switch) pipeline(inPort int, pkt *packet.Packet) {
	var honest []openflow.Action
	if e := sw.table.Lookup(uint16(inPort), pkt); e != nil {
		honest = e.Actions
	} else if sw.missSendToController && sw.ctrl != nil {
		sw.sendPacketIn(inPort, pkt, openflow.PacketInNoMatch)
		return
	}

	out := pkt
	actions := honest
	if sw.behavior != nil {
		out, actions = sw.behavior.Forward(inPort, pkt, honest)
	}
	if actions == nil {
		return // drop
	}
	sw.execute(inPort, out, actions)
}

// execute applies an OpenFlow action list: header rewrites take effect for
// subsequent outputs, per OF 1.0 semantics. The incoming packet is treated
// as immutable; a working copy is made before the first rewrite.
func (sw *Switch) execute(inPort int, pkt *packet.Packet, actions []openflow.Action) {
	work := pkt
	modified := false
	for _, a := range actions {
		if a.Type == openflow.ActionOutput {
			sw.output(inPort, int(a.Port), a, work)
			continue
		}
		if !modified {
			work = work.Clone()
			modified = true
		}
		openflow.ApplyHeader(a, work)
	}
}

func (sw *Switch) output(inPort, outPort int, a openflow.Action, pkt *packet.Packet) {
	switch uint16(outPort) {
	case openflow.PortFlood, openflow.PortAll:
		for _, p := range sw.ports.List() {
			if p == inPort && uint16(outPort) == openflow.PortFlood {
				continue
			}
			sw.transmit(p, pkt)
		}
	case openflow.PortInPort:
		sw.transmit(inPort, pkt)
	case openflow.PortController:
		sw.sendPacketIn(inPort, pkt, openflow.PacketInAction)
	case openflow.PortNone, openflow.PortLocal, openflow.PortTable, openflow.PortNormal:
		// Not modelled: drop.
	default:
		sw.transmit(outPort, pkt)
	}
}

func (sw *Switch) transmit(port int, pkt *packet.Packet) {
	if sw.down {
		// A crashed switch puts nothing on the wire — this also silences
		// behaviors whose self-scheduled injections fire mid-outage.
		sw.life.TxWhileDown++
		return
	}
	if sw.OnTransmit != nil {
		sw.OnTransmit(port, pkt)
	}
	if sw.ports.Send(port, pkt) {
		pc := sw.PortCounters(port)
		pc.TxPackets++
		pc.TxBytes += uint64(pkt.WireLen())
	}
}

// InjectLocal lets a behavior or test originate a packet from inside the
// switch, as if its firmware crafted it (§IV: "a router starts crafting
// packets unsolicited").
func (sw *Switch) InjectLocal(outPort int, pkt *packet.Packet) {
	sw.transmit(outPort, pkt)
}

func (sw *Switch) xid() uint32 {
	sw.nextXid++
	return sw.nextXid
}
