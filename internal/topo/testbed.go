// Package topo assembles the concrete topologies of the paper: the Fig. 3
// performance testbed in all six scenario flavours (Linespeed, Dup3/5,
// Central3/5, POX3), the Clos/fat-tree of the §VI case study, and the
// disjoint-multipath network of the §VII virtualized combiner.
package topo

import (
	"fmt"
	"time"

	"netco/internal/controller"
	"netco/internal/core"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/switching"
	"netco/internal/traffic"
)

// TestbedKind selects the evaluation scenario (§V-A).
type TestbedKind int

// Testbed kinds.
const (
	// KindLinespeed is the insecure baseline: h1–s1–r–s2–h2.
	KindLinespeed TestbedKind = iota + 1
	// KindCentral is the full combiner with the data-plane C compare.
	KindCentral
	// KindDup splits but never combines.
	KindDup
	// KindPOX runs the compare as a controller application.
	KindPOX
	// KindInline places the compare inband as a middlebox behind each
	// edge (the §IX alternative architecture).
	KindInline
)

// TestbedParams holds every physical constant of the Fig. 3 testbed.
type TestbedParams struct {
	Kind TestbedKind
	// K is the number of parallel routers (1 for Linespeed).
	K int

	// Links.
	HostLink    netem.LinkConfig
	RouterLink  netem.LinkConfig
	CompareLink netem.LinkConfig

	// Untrusted router pipeline.
	SwitchProcDelay time.Duration
	SwitchProcQueue int

	// Trusted edge pipeline.
	EdgeProcDelay time.Duration
	EdgeProcQueue int

	// Host stack.
	Host traffic.HostConfig

	// Compare (Central kinds).
	Compare core.CompareNodeConfig

	// POX kind: control-channel latency and interpreter per-copy cost.
	CtrlLatency    time.Duration
	POXPerCopyCost time.Duration
	POXQueueLimit  int
	POXEngine      core.Config

	// Compromise optionally returns a behavior for router i (nil =
	// honest); used by attack experiments.
	Compromise func(i int) switching.Behavior

	// Partitions > 1 runs the testbed on the parallel engine, splitting
	// it into up to three domains (combiner, h1, h2) joined by the host
	// links; see Open. The POX testbed is one unit — the controller and
	// both edges share state — and always runs serial.
	Partitions int
	// Workers bounds the engine's worker goroutines (0 = GOMAXPROCS).
	Workers int
}

// Testbed is an assembled Fig. 3 network.
type Testbed struct {
	// World holds Net, Runner and the Sched or Engine behind it.
	*World
	H1 *traffic.Host
	H2 *traffic.Host

	// Combiner is set for Linespeed/Central/Dup kinds.
	Combiner *core.Combiner
	// POXApp and Edges are set for the POX kind.
	POXApp *controller.CompareApp
	Edges  []*switching.Switch

	Routers []*switching.Switch
}

// Close releases periodic activity (compare sweeps) so a finished
// simulation's event queue can drain.
func (tb *Testbed) Close() {
	if tb.Combiner != nil {
		tb.Combiner.Close()
	}
	if tb.POXApp != nil {
		tb.POXApp.Close()
	}
}

// BuildTestbed assembles the testbed per the parameters.
func BuildTestbed(p TestbedParams) *Testbed {
	cut := Cut{Units: 3, Delay: p.HostLink.Delay, Assign: TestbedAssign}
	if p.Kind == KindPOX {
		cut.Units = 1
	}
	tb := &Testbed{World: Open(p.Partitions, p.Workers, cut)}
	net := tb.Net

	tb.H1 = traffic.NewHost(net.SchedulerFor("h1"), "h1", packet.HostMAC(1), packet.HostIP(1), p.Host)
	tb.H2 = traffic.NewHost(net.SchedulerFor("h2"), "h2", packet.HostMAC(2), packet.HostIP(2), p.Host)

	newRouter := func(i int) *switching.Switch {
		name := fmt.Sprintf("r%d", i)
		sw := switching.New(net.SchedulerFor(name), switching.Config{
			Name:       name,
			DatapathID: uint64(100 + i),
			ProcDelay:  p.SwitchProcDelay,
			ProcQueue:  p.SwitchProcQueue,
		})
		if p.Compromise != nil {
			if b := p.Compromise(i); b != nil {
				sw.SetBehavior(b)
			}
		}
		return sw
	}

	switch p.Kind {
	case KindPOX:
		buildPOXTestbed(tb, p, newRouter)
	default:
		mode := core.CombinerCentral
		k := p.K
		switch p.Kind {
		case KindLinespeed:
			mode, k = core.CombinerDup, 1
		case KindDup:
			mode = core.CombinerDup
		case KindInline:
			mode = core.CombinerInline
		}
		spec := core.CombinerSpec{
			K:             k,
			Mode:          mode,
			Compare:       p.Compare,
			EdgeProcDelay: p.EdgeProcDelay,
			EdgeProcQueue: p.EdgeProcQueue,
			RouterLink:    p.RouterLink,
			CompareLink:   p.CompareLink,
		}
		tb.Combiner = core.Build(net, spec, newRouter)
		tb.Routers = tb.Combiner.Routers
		tb.Combiner.AttachHost(net, core.SideLeft, tb.H1, traffic.HostPort, tb.H1.MAC(), p.HostLink)
		tb.Combiner.AttachHost(net, core.SideRight, tb.H2, traffic.HostPort, tb.H2.MAC(), p.HostLink)
	}
	tb.Wired()
	return tb
}

// buildPOXTestbed wires the POX3 scenario: the trusted edges are plain
// OpenFlow switches and the compare runs on the controller.
func buildPOXTestbed(tb *Testbed, p TestbedParams, newRouter func(i int) *switching.Switch) {
	sched, net := tb.Sched, tb.Net
	s1 := switching.New(sched, switching.Config{Name: "s1", DatapathID: 1, ProcDelay: p.EdgeProcDelay, ProcQueue: p.EdgeProcQueue})
	s2 := switching.New(sched, switching.Config{Name: "s2", DatapathID: 2, ProcDelay: p.EdgeProcDelay, ProcQueue: p.EdgeProcQueue})
	tb.Edges = []*switching.Switch{s1, s2}

	net.Connect(tb.H1, traffic.HostPort, s1, 0, p.HostLink)
	net.Connect(tb.H2, traffic.HostPort, s2, 0, p.HostLink)

	routerPorts := make([]uint16, 0, p.K)
	for i := 0; i < p.K; i++ {
		r := newRouter(i)
		tb.Routers = append(tb.Routers, r)
		net.Connect(s1, 1+i, r, core.RouterPortLeft, p.RouterLink)
		net.Connect(s2, 1+i, r, core.RouterPortRight, p.RouterLink)
		r.Table().Add(&openflow.FlowEntry{
			Priority: 100,
			Match:    openflow.MatchAll().WithDlDst(tb.H2.MAC()),
			Actions:  []openflow.Action{openflow.Output(core.RouterPortRight)},
		})
		r.Table().Add(&openflow.FlowEntry{
			Priority: 100,
			Match:    openflow.MatchAll().WithDlDst(tb.H1.MAC()),
			Actions:  []openflow.Action{openflow.Output(core.RouterPortLeft)},
		})
		routerPorts = append(routerPorts, uint16(1+i))
	}

	app := controller.NewCompareApp(sched, controller.CompareAppConfig{
		Engine:      p.POXEngine,
		PerCopyCost: p.POXPerCopyCost,
		QueueLimit:  p.POXQueueLimit,
	})
	app.ConfigureDatapath(1, 0, routerPorts, map[packet.MAC]uint16{tb.H1.MAC(): 0})
	app.ConfigureDatapath(2, 0, routerPorts, map[packet.MAC]uint16{tb.H2.MAC(): 0})
	s1.ConnectController(app, p.CtrlLatency)
	s2.ConnectController(app, p.CtrlLatency)
	tb.POXApp = app

	// Let the handshake and proactive rules settle before traffic.
	sched.RunFor(20 * time.Millisecond)
}
