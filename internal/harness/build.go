package harness

import (
	"fmt"
	"strings"
	"time"

	"netco/internal/adversary"
	"netco/internal/chaos"
	"netco/internal/core"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// Fixed execution timeline (virtual time). Every run follows the same
// schedule so identical scenarios produce identical event sequences:
// flows start inside [settle, settle+window) and the drain leaves the
// compare enough time to expire and retire every outstanding entry
// (hold 20 ms ≪ drain).
const (
	settleTime  = 10 * time.Millisecond
	windowTime  = 120 * time.Millisecond
	drainTime   = 120 * time.Millisecond
	flowStagger = time.Millisecond
)

// Calibration shared by every harness run. Deliberately generous — the
// oracles reason about Byzantine interference, so honest resource
// exhaustion (queue drops, compare overload) must stay out of frame.
const (
	hostLinkRate   = 2e9
	propDelay      = 16 * time.Microsecond
	linkQueue      = 256
	switchProc     = 2 * time.Microsecond
	switchQueue    = 1024
	edgeProc       = 1 * time.Microsecond
	edgeQueue      = 1024
	hostIngest     = 2 * time.Microsecond
	hostQueue      = 256
	comparePerCopy = 1 * time.Microsecond
	compareQueue   = 2048
	compareHold    = 20 * time.Millisecond
	compareCache   = 8192
	compareCleanup = 100 * time.Nanosecond
	compareBlock   = 50 * time.Millisecond
)

// floodSrcMAC is the forged source of flood frames. It must not be
// registered at any edge, or the ingress spoof check would eat the flood
// before the compare ever sees it.
var floodSrcMAC = packet.HostMAC(0xee)

// fabric is an assembled scenario network, before taps and traffic.
type fabric struct {
	runner sim.Runner
	net    *netem.Network
	h1     *traffic.Host
	h2     *traffic.Host
	combs  []*core.Combiner
	// behaviors maps global router index -> installed adversary chain,
	// so activity accounting can read the counters after a run.
	behaviors map[int]switching.Behavior
	// floods collects the generators so Execute can bound them.
	floods []*adversary.Flood
}

// schedOf returns the scheduler owning a node, in either engine mode.
func (f *fabric) schedOf(name string) *sim.Scheduler {
	return f.net.SchedulerFor(name)
}

func (f *fabric) close() {
	for _, c := range f.combs {
		c.Close()
	}
	for _, fl := range f.floods {
		fl.Stop()
	}
}

// fabricUnits is the co-location unit count of each scenario topology
// (see internal/topo/partition.go for the unit rule: nodes that share
// mutable state through direct calls must share a domain).
func fabricUnits(sc Scenario) int {
	switch sc.Topology {
	case TopoChain:
		return 4 // c0, c1, h1, h2
	case TopoFatTree:
		return 9 // 4 pods, 2 core groups, combiner, h1, h2
	default:
		return 3 // combiner, h1, h2
	}
}

// fabricUnit maps a node name to its unit. Combiner nodes all carry the
// "c<i>-" prefix, so a whole combiner (edges, routers, compare — which
// call each other directly) lands in one unit; hosts get their own; the
// fat-tree switches reuse the pod/core-group scheme.
func fabricUnit(sc Scenario, name string) int {
	switch sc.Topology {
	case TopoChain:
		switch {
		case strings.HasPrefix(name, "c0-"):
			return 0
		case strings.HasPrefix(name, "c1-"):
			return 1
		case name == "h1":
			return 2
		default:
			return 3
		}
	case TopoFatTree:
		switch {
		case strings.HasPrefix(name, "c0-"):
			return 6
		case name == "h1":
			return 7
		case name == "h2":
			return 8
		default:
			// 4-ary fat tree: pods 0..3, core groups 4..5. With six
			// domains the modulo inside FatTreeAssign is the identity.
			return topo.FatTreeAssign(4, 6)(name)
		}
	default:
		switch name {
		case "h1":
			return 1
		case "h2":
			return 2
		default:
			return 0
		}
	}
}

// buildFabric wires the scenario's topology with its adversaries already
// attached (behaviors must be installed at router construction so Flood
// generators start with the simulation). partitions > 1 runs the fabric
// on the conservative parallel engine with that many domains (capped at
// the topology's unit count); the result is bit-identical to serial.
func buildFabric(sc Scenario, partitions int) *fabric {
	f := &fabric{behaviors: make(map[int]switching.Behavior)}
	w := topo.Open(partitions, 0, topo.Cut{
		Units: fabricUnits(sc),
		Delay: propDelay, // every harness link has it
		Assign: func(domains int) func(string) int {
			return func(name string) int { return fabricUnit(sc, name) % domains }
		},
	})
	f.net, f.runner = w.Net, w.Runner

	hostCfg := traffic.HostConfig{
		IngestPerPacket: hostIngest,
		IngestQueue:     hostQueue,
		EchoResponder:   true,
	}
	f.h1 = traffic.NewHost(f.schedOf("h1"), "h1", packet.HostMAC(1), packet.HostIP(1), hostCfg)
	f.h2 = traffic.NewHost(f.schedOf("h2"), "h2", packet.HostMAC(2), packet.HostIP(2), hostCfg)

	switch sc.Topology {
	case TopoFatTree:
		buildFatTreeFabric(f, sc)
	case TopoChain:
		buildChainFabric(f, sc)
	default:
		buildTestbedFabric(f, sc)
	}
	f.scheduleChaos(sc)
	w.Wired()
	return f
}

// scheduleChaos arms the scenario's fault plan during single-threaded
// setup. Each action's target is wired to its node or link; the
// transitions themselves execute later, as timed events on the target's
// own scheduler (see internal/chaos), so chaotic runs stay race-free and
// bit-identical under the partitioned engine.
func (f *fabric) scheduleChaos(sc Scenario) {
	var plan chaos.Plan
	for _, a := range sc.Chaos {
		var tgt chaos.Target
		switch a.Kind {
		case ChaosRouterCrash:
			ci, ri := a.Router/sc.K, a.Router%sc.K
			comb := f.combs[ci]
			sw := comb.Routers[ri]
			// Restart goes through the combiner, which replays the
			// proactively installed rules onto the cold table.
			tgt = chaos.NodeTarget(f.schedOf(sw.Name()), sw.Crash,
				func() { comb.RestartRouter(ri) })
		case ChaosCompareCrash:
			cn := f.combs[a.Combiner].Compare
			tgt = chaos.NodeTarget(f.schedOf(cn.Name()), cn.Crash, cn.Restart)
		case ChaosLinkFlap:
			ci, ri := a.Router/sc.K, a.Router%sc.K
			tgt = chaos.LinkTarget(f.combs[ci].RouterLinks[ri][a.Side])
		}
		plan.Actions = append(plan.Actions, a.action(tgt))
	}
	if err := plan.Schedule(); err != nil {
		// Validate accepted the scenario before the fabric was built.
		panic(err)
	}
}

func (f *fabric) hostLink() netem.LinkConfig {
	return netem.LinkConfig{Bandwidth: hostLinkRate, Delay: propDelay, QueueLimit: linkQueue}
}

// trunkLink is every link the scenario's trunk rate shapes: the
// combiner's edge↔router links and (for the fat tree) the fabric and
// splice links. Impairments attach here and only here — host and compare
// links stay clean, matching the threat model's trusted attachment
// points. The reorder stage only ever *adds* propagation delay, so the
// partitioned engine's lookahead (min cross-link delay) stays sound.
func (f *fabric) trunkLink(sc Scenario) netem.LinkConfig {
	cfg := netem.LinkConfig{Bandwidth: sc.TrunkMbps * 1e6, Delay: propDelay, QueueLimit: linkQueue}
	if sc.Impaired() {
		cfg.Impairments = sc.Impair.spec(sc.Seed)
	}
	return cfg
}

// buildCombiner assembles combiner ci of the scenario, attaching the
// adversary assigned to one of its routers (if any).
func (f *fabric) buildCombiner(sc Scenario, ci int) *core.Combiner {
	spec := core.CombinerSpec{
		NamePrefix: fmt.Sprintf("c%d-", ci),
		K:          sc.K,
		Mode:       core.CombinerCentral,
		Compare: core.CompareNodeConfig{
			Engine: core.Config{
				HoldTimeout:   compareHold,
				CacheCapacity: compareCache,
				DetectOnly:    sc.K == 2,
			},
			PerCopyCost:     comparePerCopy,
			QueueLimit:      compareQueue,
			CleanupPerEntry: compareCleanup,
			BlockDuration:   compareBlock,
		},
		EdgeProcDelay: edgeProc,
		EdgeProcQueue: edgeQueue,
		RouterLink:    f.trunkLink(sc),
		CompareLink:   netem.LinkConfig{Bandwidth: hostLinkRate, Delay: propDelay, QueueLimit: 4 * linkQueue},
	}
	if sc.WeakenMajority {
		spec.Compare.Engine.Majority = sc.K / 2
	}
	comb := core.Build(f.net, spec, func(i int) *switching.Switch {
		name := fmt.Sprintf("c%d-r%d", ci, i)
		sw := switching.New(f.schedOf(name), switching.Config{
			Name:       name,
			DatapathID: uint64(100 + ci*core.MaxK + i),
			ProcDelay:  switchProc,
			ProcQueue:  switchQueue,
		})
		if b := f.behaviorFor(sc, ci*sc.K+i); b != nil {
			sw.SetBehavior(b)
		}
		return sw
	})
	f.combs = append(f.combs, comb)
	return comb
}

// behaviorFor materialises the adversary chain assigned to global router
// index g, or nil for an honest router.
func (f *fabric) behaviorFor(sc Scenario, g int) switching.Behavior {
	for _, a := range sc.Adversaries {
		if a.Router != g {
			continue
		}
		chain := make(adversary.Chain, 0, len(a.Chain))
		for j, atom := range a.Chain {
			chain = append(chain, f.buildAtom(sc, atom, g, j))
		}
		f.behaviors[g] = chain
		return chain
	}
	return nil
}

func (f *fabric) buildAtom(sc Scenario, a Atom, g, j int) switching.Behavior {
	match := openflow.MatchAll()
	switch a.Scope {
	case "udp":
		match = match.WithNwProto(packet.ProtoUDP)
	case "tcp":
		match = match.WithNwProto(packet.ProtoTCP)
	case "icmp":
		match = match.WithNwProto(packet.ProtoICMP)
	}
	switch a.Kind {
	case AtomReroute:
		// Bounce packets arriving on Dir straight back where they came
		// from — always the wrong direction for the matched traffic.
		return &adversary.Reroute{Match: match.WithInPort(uint16(a.Dir)), ToPort: uint16(a.Dir)}
	case AtomMirror:
		return &adversary.Mirror{Match: match.WithInPort(uint16(a.Dir)), ToPort: uint16(a.Dir)}
	case AtomDrop:
		d := &adversary.Drop{Match: match, Probability: a.Probability}
		if a.Probability > 0 && a.Probability < 1 {
			// Deterministic per (scenario, router, atom position).
			d.Rng = sim.NewRNG(sc.Seed ^ int64(g)<<16 ^ int64(j)<<8)
		}
		return d
	case AtomModify:
		var rewrite []openflow.Action
		switch a.Rewrite {
		case "tos":
			rewrite = []openflow.Action{openflow.SetNwTOS(0x10)}
		case "vlan":
			rewrite = []openflow.Action{openflow.SetVLANVID(77)}
		case "tp_dst":
			rewrite = []openflow.Action{openflow.SetTpDst(9999)}
		}
		return &adversary.Modify{Match: match, Rewrite: rewrite}
	case AtomReplay:
		return &adversary.Replay{Match: match, Extra: a.Extra}
	case AtomFlood:
		dst := f.h1
		if a.Dir == 1 {
			dst = f.h2
		}
		fl := &adversary.Flood{
			OutPort: a.Dir,
			Rate:    a.RateKpps * 1e3,
			Template: packet.NewUDP(
				packet.Endpoint{MAC: floodSrcMAC, IP: packet.HostIP(0xee), Port: 9},
				dst.Endpoint(9),
				make([]byte, 64),
			),
			Vary:     a.Vary,
			Duration: settleTime + windowTime,
		}
		f.floods = append(f.floods, fl)
		return fl
	}
	panic("harness: unreachable atom kind " + a.Kind)
}

// buildTestbedFabric is the Fig. 3 shape: hosts directly on the
// combiner's edges.
func buildTestbedFabric(f *fabric, sc Scenario) {
	comb := f.buildCombiner(sc, 0)
	comb.AttachHost(f.net, core.SideLeft, f.h1, traffic.HostPort, f.h1.MAC(), f.hostLink())
	comb.AttachHost(f.net, core.SideRight, f.h2, traffic.HostPort, f.h2.MAC(), f.hostLink())
}

// buildChainFabric joins two combiners in series through their host-side
// edge ports: h1 – C0 – C1 – h2. Each inward-facing edge registers the
// far host's MAC on its host port, so the ingress spoof checks and MAC
// tables work exactly as with a directly attached host.
func buildChainFabric(f *fabric, sc Scenario) {
	c0 := f.buildCombiner(sc, 0)
	c1 := f.buildCombiner(sc, 1)
	c0.AttachHost(f.net, core.SideLeft, f.h1, traffic.HostPort, f.h1.MAC(), f.hostLink())
	c1.AttachHost(f.net, core.SideRight, f.h2, traffic.HostPort, f.h2.MAC(), f.hostLink())
	f.net.Connect(c0.Right, core.EdgeHostPort, c1.Left, core.EdgeHostPort, f.hostLink())
	c0.Right.AddHostPort(core.EdgeHostPort, f.h2.MAC())
	c1.Left.AddHostPort(core.EdgeHostPort, f.h1.MAC())
	c0.InstallRoute(f.h2.MAC(), core.SideRight)
	c1.InstallRoute(f.h1.MAC(), core.SideLeft)
}

// buildFatTreeFabric splices the combiner between two rack switches of a
// 4-ary fat tree (the §VI deployment): h1 under pod0-edge0, h2 under
// pod0-edge1, with the combiner hung off a spare up-port of each rack
// switch so inter-rack traffic must cross it.
func buildFatTreeFabric(f *fabric, sc Scenario) {
	link := f.trunkLink(sc)
	ft := topo.BuildFatTree(f.net, topo.FatTreeParams{
		Arity:           4,
		Link:            link,
		SwitchProcDelay: switchProc,
		SwitchProcQueue: switchQueue,
	})
	rack1, rack2 := ft.Pods[0].Edge[0], ft.Pods[0].Edge[1]
	f.net.Connect(f.h1, traffic.HostPort, rack1, ft.EdgeHostPortOf(0), f.hostLink())
	f.net.Connect(f.h2, traffic.HostPort, rack2, ft.EdgeHostPortOf(0), f.hostLink())

	route := func(sw *switching.Switch, dst packet.MAC, port int) {
		sw.Table().Add(&openflow.FlowEntry{
			Priority: 100,
			Match:    openflow.MatchAll().WithDlDst(dst),
			Actions:  []openflow.Action{openflow.Output(uint16(port))},
		})
	}
	route(rack1, f.h1.MAC(), ft.EdgeHostPortOf(0))
	route(rack2, f.h2.MAC(), ft.EdgeHostPortOf(0))

	comb := f.buildCombiner(sc, 0)
	const sparePort = 4
	f.net.Connect(rack1, sparePort, comb.Left, core.EdgeHostPort, link)
	f.net.Connect(rack2, sparePort, comb.Right, core.EdgeHostPort, link)
	comb.Left.AddRoute(f.h1.MAC(), core.EdgeHostPort)
	comb.Right.AddRoute(f.h2.MAC(), core.EdgeHostPort)
	comb.InstallRoute(f.h1.MAC(), core.SideLeft)
	comb.InstallRoute(f.h2.MAC(), core.SideRight)
	route(rack1, f.h2.MAC(), sparePort)
	route(rack2, f.h1.MAC(), sparePort)
}
