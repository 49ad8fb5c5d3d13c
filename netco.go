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
//   - the combiner itself: BuildCombiner, Hub, CompareNode, VirtualEdge;
//   - the attacker model: Reroute, Mirror, Modify, Drop, Replay, Flood;
//   - the paper's evaluation: RunTCP, RunUDPMax, RunFig6, RunPing,
//     RunJitter, RunCaseStudy, RunVirtual, driven by a single calibrated
//     Params (cmd/netco-sweep runs them over scenarios and seeds).
//
// See examples/quickstart for a complete program.
package netco

import (
	"context"
	"time"

	"netco/internal/adversary"
	"netco/internal/controller"
	"netco/internal/core"
	"netco/internal/experiment"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/runner"
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
	// Legacy is a fixed-function router without a control plane (§IX:
	// the combiner extends to legacy routers); MACRouter is the
	// provisioning surface it shares with Switch.
	Legacy    = switching.Legacy
	MACRouter = switching.MACRouter
)

// NewSwitch creates an OpenFlow switch.
func NewSwitch(sched *Scheduler, cfg SwitchConfig) *Switch {
	return switching.New(sched, cfg)
}

// NewHost creates a host.
func NewHost(sched *Scheduler, name string, mac MAC, ip IPAddr, cfg HostConfig) *Host {
	return traffic.NewHost(sched, name, mac, ip, cfg)
}

// NewLegacy creates a fixed-function legacy router.
func NewLegacy(sched *Scheduler, name string, procDelay time.Duration, procQueue int) *Legacy {
	return switching.NewLegacy(sched, name, procDelay, procQueue)
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
	// Hub is the trusted stateless replicator.
	Hub = core.Hub
	// CompareNode is the trusted majority-voting element.
	CompareNode = core.CompareNode
	// Alarm is a security event raised by a compare.
	Alarm = core.Alarm
	// VirtualEdge is one end of the §VII virtualized combiner.
	VirtualEdge = core.VirtualEdge
	// VirtualEdgeConfig parameterises a VirtualEdge.
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

// NewHub creates a trusted replicator node.
func NewHub(sched *Scheduler, name string) *Hub { return core.NewHub(sched, name) }

// NewVirtualEdge creates one end of a virtualized combiner.
func NewVirtualEdge(sched *Scheduler, cfg VirtualEdgeConfig) *VirtualEdge {
	return core.NewVirtualEdge(sched, cfg)
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
func StripVLAN() Action            { return openflow.StripVLAN() }
func SetDlSrc(mac MAC) Action      { return openflow.SetDlSrc(mac) }
func SetDlDst(mac MAC) Action      { return openflow.SetDlDst(mac) }
func SetNwSrc(ip IPAddr) Action    { return openflow.SetNwSrc(ip) }
func SetNwDst(ip IPAddr) Action    { return openflow.SetNwDst(ip) }
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
	// TCPFlow is an iperf-style bulk transfer; TCPConfig its knobs.
	TCPFlow   = traffic.TCPFlow
	TCPConfig = traffic.TCPConfig
	// UDPSource is a paced CBR sender; UDPSink the de-duplicating,
	// jitter-measuring receiver.
	UDPSource       = traffic.UDPSource
	UDPSourceConfig = traffic.UDPSourceConfig
	UDPSink         = traffic.UDPSink
	// Pinger runs ICMP echo sequences.
	Pinger       = traffic.Pinger
	PingerConfig = traffic.PingerConfig
)

// StartTCPFlow starts a bulk transfer between two hosts.
func StartTCPFlow(from, to *Host, srcPort, dstPort uint16, cfg TCPConfig) *TCPFlow {
	return traffic.StartTCPFlow(from, to, srcPort, dstPort, cfg)
}

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
	// Testbed is the paper's Fig. 3 performance network; TestbedParams
	// its recipe.
	Testbed       = topo.Testbed
	TestbedParams = topo.TestbedParams
	// FatTree is the §VI datacenter fabric.
	FatTree       = topo.FatTree
	FatTreeParams = topo.FatTreeParams
	// Multipath is the §VII disjoint-path network.
	Multipath       = topo.Multipath
	MultipathParams = topo.MultipathParams
)

// BuildTestbed, BuildFatTree and BuildMultipath assemble the paper's
// topologies.
func BuildTestbed(p TestbedParams) *Testbed { return topo.BuildTestbed(p) }
func BuildFatTree(net *Network, p FatTreeParams) *FatTree {
	return topo.BuildFatTree(net, p)
}
func BuildMultipath(net *Network, p MultipathParams) *Multipath {
	return topo.BuildMultipath(net, p)
}

// Evaluation (the paper's §V, §VI, §VII).
type (
	// Params is the single calibrated parameter set behind every
	// experiment.
	Params = experiment.Params
	// Scenario selects one of the §V-A scenarios.
	Scenario = experiment.Scenario
	// Result types of the individual experiments.
	TCPResult          = experiment.TCPResult
	UDPMaxResult       = experiment.UDPMaxResult
	UDPPoint           = experiment.UDPPoint
	PingScenarioResult = experiment.PingScenarioResult
	JitterPoint        = experiment.JitterPoint
	Table1Row          = experiment.Table1Row
	CaseStudyResult    = experiment.CaseStudyResult
	CaseStudyOutcome   = experiment.CaseStudyOutcome
	VirtualResult      = experiment.VirtualResult
	KSweepPoint        = experiment.KSweepPoint
	DoSResult          = experiment.DoSResult
)

// Scenario constants, in the paper's order, plus the Inline3 extension
// (§IX's middlebox compare).
const (
	Linespeed = experiment.ScenLinespeed
	Central3  = experiment.ScenCentral3
	Central5  = experiment.ScenCentral5
	POX3      = experiment.ScenPOX3
	Dup3      = experiment.ScenDup3
	Dup5      = experiment.ScenDup5
	Inline3   = experiment.ScenInline3
)

// AllScenarios and TableScenarios re-export the figure scenario sets.
var (
	AllScenarios   = experiment.AllScenarios
	TableScenarios = experiment.TableScenarios
	// PaperTable1 holds the published Table I values for side-by-side
	// reporting.
	PaperTable1 = experiment.PaperTable1
)

// DefaultParams returns the calibration documented in DESIGN.md §4.
func DefaultParams() Params { return experiment.DefaultParams() }

// RunTCP measures one scenario's TCP throughput (Fig. 4).
func RunTCP(p Params, s Scenario) TCPResult { return experiment.RunTCP(p, s) }

// RunUDPMax finds a scenario's maximum UDP rate at <0.5 % loss (Fig. 5).
func RunUDPMax(p Params, s Scenario) UDPMaxResult { return experiment.RunUDPMax(p, s) }

// RunFig6 sweeps offered load on Central3 (throughput↔loss, Fig. 6).
func RunFig6(p Params, rates []float64) []UDPPoint { return experiment.RunFig6(p, rates) }

// RunPing measures one scenario's echo RTT (Fig. 7).
func RunPing(p Params, s Scenario) PingScenarioResult { return experiment.RunPing(p, s) }

// RunJitter sweeps UDP packet sizes for one scenario (Fig. 8).
func RunJitter(p Params, s Scenario, sizes []int) []JitterPoint {
	return experiment.RunJitter(p, s, sizes)
}

// RunDoS measures the §II denial-of-service attacks against the §IV
// defences (port blocking, isolated buffers).
func RunDoS(p Params) DoSResult { return experiment.RunDoS(p) }

// RunKSweep measures Central combiners across parallelism values.
func RunKSweep(p Params, ks []int) []KSweepPoint { return experiment.RunKSweep(p, ks) }

// RunCaseStudy reproduces the §VI datacenter routing attack.
func RunCaseStudy(p Params) CaseStudyResult { return experiment.RunCaseStudy(p) }

// RunVirtual demonstrates the §VII virtualized combiner.
func RunVirtual(p Params) VirtualResult { return experiment.RunVirtual(p) }

// The experiment registry: the paper's per-figure measurements and the
// extension kinds (hybrid, chaos, impair, churn, scale) as schedulable
// units, one table row each (internal/experiment). cmd/netco-sweep is the
// CLI over these.
type (
	// ExperimentKind selects a row of the experiment registry; Run
	// executes one as a pure function of (Params, Sizing, Scenario, seed).
	ExperimentKind = experiment.Kind
	// Sizing sizes the fat-tree kinds (hybrid, churn, scale); the zero
	// value is their small sweep unit. Trunk impairments and chaos knobs
	// are fields of Params (Params.Impair, Params.Chaos*).
	Sizing = experiment.Sizing
	// ExperimentResult is one run's flat, mergeable outcome.
	ExperimentResult = experiment.Result
	// SweepJob is one (kind, params, scenario, seed) run; SweepGrid the
	// cross product a sweep expands; SweepReport the merged artifact.
	SweepJob     = runner.Job
	SweepGrid    = runner.Grid
	SweepVariant = runner.Variant
	SweepReport  = runner.Report
)

// ParseExperimentKind resolves a registered kind by name; the registry is
// the one place that names them (netco-sweep -h lists it).
func ParseExperimentKind(name string) (ExperimentKind, error) { return experiment.ParseKind(name) }

// RunExperiment executes one experiment kind in isolation: a fresh
// scheduler, pools and engines per call, safe to invoke from many
// goroutines at once.
func RunExperiment(k ExperimentKind, p Params, sz Sizing, s Scenario, seed int64) ExperimentResult {
	return experiment.Run(k, p, sz, s, seed)
}

// Sweep fans jobs out across a worker pool of isolated simulations
// (workers <= 0 uses GOMAXPROCS) and returns the deterministic report.
func Sweep(ctx context.Context, workers int, jobs []SweepJob) SweepReport {
	return runner.Sweep(ctx, workers, jobs)
}
