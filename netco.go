// Package netco is the public API of the NetCo reproduction: robust
// network combiners that build reliable routing from unreliable routers
// (Feldmann et al., "NetCo: Reliable Routing With Unreliable Routers",
// DSN 2016).
//
// The idea, borrowed from cryptography's robust combiners: replace each
// untrusted router with a trusted hub that replicates traffic to k
// untrusted routers in parallel, and a trusted compare that forwards a
// packet only once a majority of the routers delivered it. Two routers
// detect misbehaviour; three prevent it.
//
// The package re-exports the library's layers:
//
//   - simulation substrate: Scheduler (virtual time), Network, LinkConfig;
//   - data plane: Switch (OpenFlow 1.0, whose rules change only by
//     install and by crash), Host, traffic generators;
//   - control plane: L2Routing over Discovery, Monitor, the POX3-style
//     CompareApp;
//   - the combiner itself: BuildCombiner, CompareNode, and the §VII
//     virtualized combiner over BuildMultipath;
//   - the attacker model: Reroute, Mirror, Modify, Drop, Replay, Flood.
//
// The paper's evaluation (Table I, Figs. 4–8, §VI, §VII) and the
// extension experiments are not part of this API: cmd/netco-sweep runs
// them over scenarios and seeds. See examples/quickstart for a complete
// program built from these parts.
package netco

import (
	"netco/internal/adversary"
	"netco/internal/controller"
	"netco/internal/core"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// Simulation substrate.
type (
	// Scheduler is the deterministic virtual-time event scheduler every
	// simulation runs on.
	Scheduler = sim.Scheduler
	// RNG is the seeded random source used wherever randomness is needed.
	RNG = sim.RNG
	// Network owns nodes and links and wires topologies.
	Network = netem.Network
	// LinkConfig sets a link's bandwidth, propagation delay and queue.
	LinkConfig = netem.LinkConfig
	// Node is anything attachable to a Network.
	Node = netem.Node
)

// NewScheduler returns a fresh virtual clock.
func NewScheduler() *Scheduler { return sim.NewScheduler() }

// NewRNG returns a deterministic random source.
func NewRNG(seed int64) *RNG { return sim.NewRNG(seed) }

// NewNetwork returns an empty network on the scheduler.
func NewNetwork(sched *Scheduler) *Network { return netem.New(sched) }

// Packets and addressing.
type (
	// Packet is a parsed network frame.
	Packet = packet.Packet
	// MAC is an Ethernet address; IPAddr an IPv4 address; Endpoint a
	// (MAC, IP, port) triple.
	MAC      = packet.MAC
	IPAddr   = packet.IPAddr
	Endpoint = packet.Endpoint
)

// HostMAC and HostIP derive deterministic host addresses from an index.
func HostMAC(n uint32) MAC   { return packet.HostMAC(n) }
func HostIP(n uint32) IPAddr { return packet.HostIP(n) }

// Data plane.
type (
	// Switch is an OpenFlow 1.0 switch (an untrusted router candidate).
	Switch = switching.Switch
	// SwitchConfig parameterises a Switch.
	SwitchConfig = switching.Config
	// Behavior is the hook a compromised switch runs instead of its
	// flow table.
	Behavior = switching.Behavior
	// Host is an end host with TCP/UDP/ICMP stacks.
	Host = traffic.Host
	// HostConfig parameterises a Host's receive stack.
	HostConfig = traffic.HostConfig
)

// NewSwitch creates an OpenFlow switch.
func NewSwitch(sched *Scheduler, cfg SwitchConfig) *Switch {
	return switching.New(sched, cfg)
}

// NewHost creates a host.
func NewHost(sched *Scheduler, name string, mac MAC, ip IPAddr, cfg HostConfig) *Host {
	return traffic.NewHost(sched, name, mac, ip, cfg)
}

// The combiner (the paper's contribution).
type (
	// Combiner is an assembled robust combiner (hub + k routers +
	// compare).
	Combiner = core.Combiner
	// CombinerSpec describes a combiner to build.
	CombinerSpec = core.CombinerSpec
	// CompareNodeConfig parameterises the data-plane compare.
	CompareNodeConfig = core.CompareNodeConfig
	// CompareConfig parameterises the compare decision engine.
	CompareConfig = core.Config
	// CompareNode is the trusted majority-voting element.
	CompareNode = core.CompareNode
	// Alarm is a security event raised by a compare.
	Alarm = core.Alarm
	// VirtualEdgeConfig parameterises one end of the §VII virtualized
	// combiner (MultipathParams.Edge).
	VirtualEdgeConfig = core.VirtualEdgeConfig
)

// Combiner modes and sides, re-exported.
const (
	CombinerCentral  = core.CombinerCentral
	CombinerDup      = core.CombinerDup
	CombinerSampling = core.CombinerSampling
	SideLeft         = core.SideLeft
	SideRight        = core.SideRight
)

// CompareMode selects how the compare decides two copies are the same
// packet.
type CompareMode = core.Mode

// Compare modes: full-frame memcmp, full-frame digest, or headers only.
const (
	CompareBitExact = core.ModeBitExact
	CompareHashed   = core.ModeHashed
	CompareHeader   = core.ModeHeader
)

// BuildCombiner assembles a robust combiner inside net; newRouter
// constructs untrusted router i. Attach the protected endpoints with
// Combiner.AttachHost.
func BuildCombiner(net *Network, spec CombinerSpec, newRouter func(i int) *Switch) *Combiner {
	return core.Build(net, spec, newRouter)
}

// OpenFlow building blocks for flow rules and behaviors.
type (
	// Match is an OpenFlow 1.0 12-tuple match; Action a flow action;
	// FlowEntry one flow-table rule.
	Match     = openflow.Match
	Action    = openflow.Action
	FlowEntry = openflow.FlowEntry
)

// MatchAll returns the fully wildcarded match; narrow it with the
// With* builders (WithDlDst, WithInPort, ...).
func MatchAll() Match { return openflow.MatchAll() }

// Action constructors, re-exported from the openflow package.
func Output(port uint16) Action    { return openflow.Output(port) }
func SetVLANVID(vid uint16) Action { return openflow.SetVLANVID(vid) }
func SetNwTOS(tos uint8) Action    { return openflow.SetNwTOS(tos) }

// Attacker model (§II).
type (
	// Reroute misdirects matching packets; Mirror duplicates them to an
	// extra port; Modify rewrites headers; Drop discards; Replay
	// re-emits copies; Flood mass-generates unsolicited packets; Chain
	// composes behaviors.
	Reroute = adversary.Reroute
	Mirror  = adversary.Mirror
	Modify  = adversary.Modify
	Drop    = adversary.Drop
	Replay  = adversary.Replay
	Flood   = adversary.Flood
	Chain   = adversary.Chain
)

// Control-plane applications.
type (
	// Controller is the control-plane application interface; Conn the
	// per-switch handle it receives.
	Controller     = switching.Controller
	ControllerConn = switching.Conn
	// Monitor polls flow/port statistics; CompareApp is the POX3-style
	// controller-resident compare.
	Monitor       = controller.Monitor
	StatsSnapshot = controller.StatsSnapshot
	CompareApp    = controller.CompareApp
	// L2Routing is a topology-aware shortest-path forwarding app built
	// on LLDP-style Discovery.
	L2Routing = controller.L2Routing
	Discovery = controller.Discovery
	PortID    = controller.PortID
)

// NewMonitor returns a stats poller, optionally wrapping a forwarding
// application.
func NewMonitor(sched *Scheduler, forward Controller) *Monitor {
	return controller.NewMonitor(sched, forward)
}

// NewL2Routing returns a shortest-path forwarding application with its
// own topology discovery.
func NewL2Routing(sched *Scheduler) *L2Routing { return controller.NewL2Routing(sched) }

// Traffic workloads.
type (
	// UDPSource is a paced CBR sender; UDPSink the de-duplicating,
	// jitter-measuring receiver.
	UDPSource       = traffic.UDPSource
	UDPSourceConfig = traffic.UDPSourceConfig
	UDPSink         = traffic.UDPSink
	// Pinger runs ICMP echo sequences.
	Pinger       = traffic.Pinger
	PingerConfig = traffic.PingerConfig
)

// NewUDPSource creates a paced UDP sender on host.
func NewUDPSource(host *Host, srcPort uint16, dst Endpoint, cfg UDPSourceConfig) *UDPSource {
	return traffic.NewUDPSource(host, srcPort, dst, cfg)
}

// NewUDPSink attaches a measuring sink to a host port.
func NewUDPSink(host *Host, port uint16) *UDPSink { return traffic.NewUDPSink(host, port) }

// NewPinger creates an ICMP echo client on host.
func NewPinger(host *Host, dst Endpoint, cfg PingerConfig) *Pinger {
	return traffic.NewPinger(host, dst, cfg)
}

// Topologies.
type (
	// FatTree is the §VI datacenter fabric.
	FatTree       = topo.FatTree
	FatTreeParams = topo.FatTreeParams
	// Multipath is the §VII disjoint-path network.
	Multipath       = topo.Multipath
	MultipathParams = topo.MultipathParams
)

// BuildFatTree and BuildMultipath assemble the paper's §VI and §VII
// topologies.
func BuildFatTree(net *Network, p FatTreeParams) *FatTree {
	return topo.BuildFatTree(net, p)
}
func BuildMultipath(net *Network, p MultipathParams) *Multipath {
	return topo.BuildMultipath(net, p)
}
