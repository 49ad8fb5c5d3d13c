package experiment

import (
	"time"

	"netco/internal/adversary"
	"netco/internal/core"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// CaseStudyOutcome is the observable result of one §VI scenario: "After
// 10 requests sent, we witness 20 requests arriving at fw1 and 0
// responses arriving at vm1" is the paper's attack row.
type CaseStudyOutcome struct {
	// RequestsSent is the number of echo requests vm1 issued.
	RequestsSent int
	// RequestsAtFirewall counts echo requests fw1 received (mirroring
	// doubles it).
	RequestsAtFirewall int
	// ResponsesAtVM counts first responses received by vm1;
	// DuplicateResponses any further copies.
	ResponsesAtVM      int
	DuplicateResponses int
	// StrayAtCore counts data-plane packets observed on the core
	// switches — the tcpdump screening of the paper ("no copies are
	// received on any other node").
	StrayAtCore uint64
	// PathRuleRequests is the packet counter of the first-hop routing
	// rule (the flow-table screening method).
	PathRuleRequests uint64
	// CompareSuppressed counts mirrored/injected packets the compare
	// quarantined (NetCo scenario only).
	CompareSuppressed uint64
	// CompareReleased counts packets the compare forwarded (NetCo
	// scenario only).
	CompareReleased uint64
}

// CaseStudyResult bundles the three §VI scenarios.
type CaseStudyResult struct {
	Baseline  CaseStudyOutcome
	Attack    CaseStudyOutcome
	Protected CaseStudyOutcome
}

// RunCaseStudy reproduces §VI: a fat-tree datacenter, ICMP echo over the
// tunnel-2 path vm1→edge→agg→edge→fw1, with (a) all switches benign, (b)
// a malicious aggregation switch that mirrors firewall-bound packets
// toward the core and drops vm1-bound responses, and (c) the same
// malicious switch placed inside a k=3 NetCo combiner.
func RunCaseStudy(p Params) CaseStudyResult {
	return CaseStudyResult{
		Baseline:  runCaseStudyScenario(p, caseBaseline),
		Attack:    runCaseStudyScenario(p, caseAttack),
		Protected: runCaseStudyScenario(p, caseProtected),
	}
}

type caseKind int

const (
	caseBaseline caseKind = iota + 1
	caseAttack
	caseProtected
)

func runCaseStudyScenario(p Params, kind caseKind) CaseStudyOutcome {
	_, run := buildCaseStudy(p, kind)
	return run()
}

// buildCaseStudy wires and routes one kind's fabric and returns it with
// the run that measures it.
func buildCaseStudy(p Params, kind caseKind) (*netem.Network, func() CaseStudyOutcome) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	link := p.TrunkLink()

	ft := topo.BuildFatTree(net, topo.FatTreeParams{
		Arity:           4,
		Link:            link,
		SwitchProcDelay: p.SwitchProc,
		SwitchProcQueue: p.SwitchQueue,
	})
	pod := ft.Pods[0]
	edgeFW, edgeVM := pod.Edge[0], pod.Edge[1] // rack 1 (security), rack 2 (VMs)
	agg := pod.Agg[0]
	core0 := ft.Cores[0]

	hostCfg := traffic.HostConfig{
		IngestPerPacket: p.HostIngest,
		IngestQueue:     p.HostQueue,
		EchoResponder:   true,
	}
	fw1 := traffic.NewHost(sched, "fw1", packet.HostMAC(0xf1), packet.HostIP(0xf1), hostCfg)
	vm1 := traffic.NewHost(sched, "vm1", packet.HostMAC(0xa1), packet.HostIP(0xa1), hostCfg)
	vm2 := traffic.NewHost(sched, "vm2", packet.HostMAC(0xa2), packet.HostIP(0xa2), hostCfg)
	net.Connect(fw1, traffic.HostPort, edgeFW, ft.EdgeHostPortOf(0), p.HostLink())
	net.Connect(vm1, traffic.HostPort, edgeVM, ft.EdgeHostPortOf(0), p.HostLink())
	net.Connect(vm2, traffic.HostPort, edgeVM, ft.EdgeHostPortOf(1), p.HostLink())

	route := func(sw *switching.Switch, dst packet.MAC, port int) *openflow.FlowEntry {
		e := &openflow.FlowEntry{
			Priority: 100,
			Match:    openflow.MatchAll().WithDlDst(dst),
			Actions:  []openflow.Action{openflow.Output(uint16(port))},
		}
		sw.Table().Add(e)
		return e
	}

	// Local rack routes.
	route(edgeFW, fw1.MAC(), ft.EdgeHostPortOf(0))
	route(edgeVM, vm1.MAC(), ft.EdgeHostPortOf(0))
	route(edgeVM, vm2.MAC(), ft.EdgeHostPortOf(1))

	var comb *core.Combiner
	var firstHopRule *openflow.FlowEntry
	if kind == caseProtected {
		// The aggregation hop is replaced by a NetCo combiner whose
		// candidate routers are three aggregation switches, one
		// compromised. The combiner edges hang off a spare up-port (4)
		// of each rack switch.
		spec := core.CombinerSpec{
			NamePrefix: "netco-",
			K:          3,
			Mode:       core.CombinerCentral,
			Compare: core.CompareNodeConfig{
				Engine: core.Config{
					HoldTimeout:   p.CompareHold,
					CacheCapacity: p.CompareCache,
				},
				PerCopyCost:     p.ComparePerCopy,
				QueueLimit:      p.CompareQueue,
				CleanupPerEntry: p.CompareCleanupPerEntry,
				BlockDuration:   p.CompareBlock,
			},
			EdgeProcDelay: p.EdgeProc,
			EdgeProcQueue: p.EdgeQueue,
			RouterLink:    link,
			CompareLink:   netem.LinkConfig{Bandwidth: p.HostLinkRate, Delay: p.PropDelay, QueueLimit: 4 * p.QueueLimit},
		}
		comb = core.Build(net, spec, func(i int) *switching.Switch {
			sw := switching.New(sched, switching.Config{
				Name:       "cand-agg" + string(rune('0'+i)),
				DatapathID: uint64(200 + i),
				ProcDelay:  p.SwitchProc,
				ProcQueue:  p.SwitchQueue,
			})
			if i == 1 {
				sw.SetBehavior(adversary.Chain{
					&adversary.Mirror{
						// Mirror firewall-bound packets out of the wrong
						// port — the exfiltration attempt.
						Match:  openflow.MatchAll().WithDlDst(fw1.MAC()).WithInPort(core.RouterPortLeft),
						ToPort: core.RouterPortLeft,
					},
					&adversary.Drop{Match: openflow.MatchAll().WithDlDst(vm1.MAC())},
				})
			}
			return sw
		})
		const sparePort = 4
		net.Connect(edgeVM, sparePort, comb.Left, core.EdgeHostPort, link)
		net.Connect(edgeFW, sparePort, comb.Right, core.EdgeHostPort, link)
		comb.Left.AddRoute(vm1.MAC(), core.EdgeHostPort)
		comb.Left.AddRoute(vm2.MAC(), core.EdgeHostPort)
		comb.Right.AddRoute(fw1.MAC(), core.EdgeHostPort)
		comb.InstallRoute(fw1.MAC(), core.SideRight)
		comb.InstallRoute(vm1.MAC(), core.SideLeft)
		comb.InstallRoute(vm2.MAC(), core.SideLeft)
		firstHopRule = route(edgeVM, fw1.MAC(), sparePort)
		route(edgeFW, vm1.MAC(), sparePort)
		route(edgeFW, vm2.MAC(), sparePort)
	} else {
		// Tunnel 2 rides the aggregation switch.
		firstHopRule = route(edgeVM, fw1.MAC(), ft.EdgeUpPortOf(0))
		route(edgeFW, vm1.MAC(), ft.EdgeUpPortOf(0))
		route(edgeFW, vm2.MAC(), ft.EdgeUpPortOf(0))
		route(agg, fw1.MAC(), ft.AggDownPortOf(0))
		route(agg, vm1.MAC(), ft.AggDownPortOf(1))
		route(agg, vm2.MAC(), ft.AggDownPortOf(1))
		// The core's route back toward the firewall (used by the
		// mirrored copies in the attack scenario).
		route(core0, fw1.MAC(), ft.CorePodPortOf(0))

		if kind == caseAttack {
			agg.SetBehavior(adversary.Chain{
				&adversary.Mirror{
					Match:  openflow.MatchAll().WithDlDst(fw1.MAC()).WithInPort(uint16(ft.AggDownPortOf(1))),
					ToPort: uint16(ft.AggUpPortOf(0)),
				},
				&adversary.Drop{Match: openflow.MatchAll().WithDlDst(vm1.MAC())},
			})
		}
	}

	return net, func() CaseStudyOutcome {
		// The paper's tcpdump screening: count every transmission on every
		// core switch, taken before the port queue so drops count too —
		// any transmission there is a stray.
		var stray uint64
		for _, c := range ft.Cores {
			c.OnTransmit = func(int, *packet.Packet) { stray++ }
		}

		const cycles = 10
		pinger := traffic.NewPinger(vm1, fw1.Endpoint(0), traffic.PingerConfig{
			Count:    cycles,
			Interval: 20 * time.Millisecond,
			ID:       7,
		})
		var res traffic.PingResult
		pinger.Run(func(r traffic.PingResult) { res = r })
		sched.RunFor(time.Duration(cycles)*20*time.Millisecond + 3*time.Second)

		out := CaseStudyOutcome{
			RequestsSent:       res.Sent,
			RequestsAtFirewall: int(fw1.Stats().EchoesAnswered),
			ResponsesAtVM:      res.Received,
			DuplicateResponses: res.Duplicates,
			StrayAtCore:        stray,
			PathRuleRequests:   firstHopRule.Packets,
		}
		if comb != nil {
			es := comb.Compare.EngineStats()
			out.CompareSuppressed = es.Suppressed
			out.CompareReleased = es.Released
			comb.Close()
		}
		return out
	}
}
