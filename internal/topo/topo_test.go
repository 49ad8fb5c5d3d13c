package topo_test

import (
	"testing"
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

func TestFatTreeStructure(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	ft := topo.BuildFatTree(net, topo.FatTreeParams{Arity: 4, Link: netem.LinkConfig{}})

	if len(ft.Cores) != 4 {
		t.Fatalf("cores = %d, want 4", len(ft.Cores))
	}
	if len(ft.Pods) != 4 {
		t.Fatalf("pods = %d, want 4", len(ft.Pods))
	}
	for i, pod := range ft.Pods {
		if len(pod.Agg) != 2 || len(pod.Edge) != 2 {
			t.Fatalf("pod %d has %d agg / %d edge, want 2/2", i, len(pod.Agg), len(pod.Edge))
		}
		// Every edge has 2 up ports bound, every agg 2 down + 2 up.
		for _, e := range pod.Edge {
			if e.Ports().Count() != 2 { // host ports unbound until hosts attach
				t.Fatalf("edge %s has %d bound ports, want 2 uplinks", e.Name(), e.Ports().Count())
			}
		}
		for _, a := range pod.Agg {
			if a.Ports().Count() != 4 {
				t.Fatalf("agg %s has %d bound ports, want 4", a.Name(), a.Ports().Count())
			}
		}
	}
	for _, c := range ft.Cores {
		if c.Ports().Count() != 4 {
			t.Fatalf("core %s has %d bound ports, want 4 (one per pod)", c.Name(), c.Ports().Count())
		}
	}
	// k pods × 2×(k/2)² links.
	if got, want := len(net.Links()), 4*2*2*2; got != want {
		t.Fatalf("links = %d, want %d", got, want)
	}
}

func TestFatTreeOddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd arity did not panic")
		}
	}()
	sched := sim.NewScheduler()
	topo.BuildFatTree(netem.New(sched), topo.FatTreeParams{Arity: 3})
}

func TestFatTreeCrossPodPath(t *testing.T) {
	// Route a ping from pod 0 to pod 1 via agg0/core0 with static rules
	// to prove the fabric is correctly wired.
	sched := sim.NewScheduler()
	net := netem.New(sched)
	link := netem.LinkConfig{Bandwidth: 1e9, Delay: 5 * time.Microsecond, QueueLimit: 100}
	ft := topo.BuildFatTree(net, topo.FatTreeParams{Arity: 4, Link: link, SwitchProcDelay: time.Microsecond})

	h1 := traffic.NewHost(sched, "ha", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{EchoResponder: true})
	h2 := traffic.NewHost(sched, "hb", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{EchoResponder: true})
	net.Connect(h1, traffic.HostPort, ft.Pods[0].Edge[0], ft.EdgeHostPortOf(0), link)
	net.Connect(h2, traffic.HostPort, ft.Pods[1].Edge[0], ft.EdgeHostPortOf(0), link)

	route := func(sw *switching.Switch, mac packet.MAC, port int) {
		sw.Table().Add(&openflow.FlowEntry{
			Priority: 100,
			Match:    openflow.MatchAll().WithDlDst(mac),
			Actions:  []openflow.Action{openflow.Output(uint16(port))},
		})
	}
	// h1 → h2: edge0/pod0 up to agg0, agg0 up to core0, core0 to pod1,
	// pod1 agg0 down to edge0, edge to host. And the reverse.
	route(ft.Pods[0].Edge[0], h2.MAC(), ft.EdgeUpPortOf(0))
	route(ft.Pods[0].Agg[0], h2.MAC(), ft.AggUpPortOf(0))
	route(ft.Cores[0], h2.MAC(), ft.CorePodPortOf(1))
	route(ft.Pods[1].Agg[0], h2.MAC(), ft.AggDownPortOf(0))
	route(ft.Pods[1].Edge[0], h2.MAC(), ft.EdgeHostPortOf(0))

	route(ft.Pods[1].Edge[0], h1.MAC(), ft.EdgeUpPortOf(0))
	route(ft.Pods[1].Agg[0], h1.MAC(), ft.AggUpPortOf(0))
	route(ft.Cores[0], h1.MAC(), ft.CorePodPortOf(0))
	route(ft.Pods[0].Agg[0], h1.MAC(), ft.AggDownPortOf(0))
	route(ft.Pods[0].Edge[0], h1.MAC(), ft.EdgeHostPortOf(0))

	p := traffic.NewPinger(h1, h2.Endpoint(0), traffic.PingerConfig{Count: 5, ID: 1})
	var res traffic.PingResult
	p.Run(func(r traffic.PingResult) { res = r })
	sched.RunFor(2 * time.Second)
	if res.Received != 5 {
		t.Fatalf("cross-pod ping: received %d of 5", res.Received)
	}
}

func buildMultipath(t *testing.T, paths int, compromise func(path, hop int) switching.Behavior) (*sim.Scheduler, *topo.Multipath, *traffic.Host, *traffic.Host) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)
	link := netem.LinkConfig{Bandwidth: 1e9, Delay: 10 * time.Microsecond, QueueLimit: 100}
	mp := topo.BuildMultipath(net, topo.MultipathParams{
		Paths:           paths,
		HopsPerPath:     2,
		Link:            link,
		EdgeLink:        link,
		SwitchProcDelay: time.Microsecond,
		SwitchProcQueue: 500,
		Edge: core.VirtualEdgeConfig{
			Engine:      core.Config{HoldTimeout: 10 * time.Millisecond, CacheCapacity: 1 << 16, DetectOnly: paths == 2},
			PerCopyCost: 2 * time.Microsecond,
		},
		Compromise: compromise,
	})
	h1 := traffic.NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{EchoResponder: true})
	h2 := traffic.NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{EchoResponder: true})
	net.Connect(h1, traffic.HostPort, mp.Left, core.VirtualHostPort, link)
	net.Connect(h2, traffic.HostPort, mp.Right, core.VirtualHostPort, link)
	mp.Route(h1.MAC(), core.SideLeft)
	mp.Route(h2.MAC(), core.SideRight)
	return sched, mp, h1, h2
}

func TestMultipathDeliversExactlyOnce(t *testing.T) {
	sched, mp, h1, h2 := buildMultipath(t, 3, nil)
	defer mp.Close()
	sink := traffic.NewUDPSink(h2, 5001)
	src := traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 20e6, PayloadSize: 800})
	src.Start()
	sched.RunFor(200 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent || st.Duplicates != 0 {
		t.Fatalf("unique=%d dups=%d sent=%d", st.Unique, st.Duplicates, src.Sent)
	}
	if mp.Right.Stats().Combined != src.Sent {
		t.Fatalf("Combined = %d, want %d", mp.Right.Stats().Combined, src.Sent)
	}
	// Every path carried one tagged copy.
	if mp.Left.Stats().Split != 3*src.Sent {
		t.Fatalf("Split = %d, want %d", mp.Left.Stats().Split, 3*src.Sent)
	}
}

func TestMultipathPreventsPayloadTamper(t *testing.T) {
	// A malicious mid-path switch rewrites the IP TOS field on path 1;
	// the inband compare must out-vote it.
	sched, mp, h1, h2 := buildMultipath(t, 3, func(path, hop int) switching.Behavior {
		if path == 1 && hop == 1 {
			return &adversary.Modify{
				Match:   openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
				Rewrite: []openflow.Action{openflow.SetNwTOS(0xfc)},
			}
		}
		return nil
	})
	defer mp.Close()

	sink := traffic.NewUDPSink(h2, 5001)
	src := traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 10e6, PayloadSize: 500})
	src.Start()
	sched.RunFor(100 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	if got := sink.Stats().Unique; got != src.Sent {
		t.Fatalf("delivered %d of %d", got, src.Sent)
	}
	if s := mp.Right.EngineStats().Suppressed; s == 0 {
		t.Fatal("tampered copies not suppressed")
	}
}

func TestMultipathDetectsVLANRewrite(t *testing.T) {
	// A device rewriting the tunnel label (the §II isolation attack) is
	// caught by the egress label check.
	sched, mp, h1, h2 := buildMultipath(t, 3, func(path, hop int) switching.Behavior {
		if path == 0 && hop == 0 {
			return &adversary.Modify{
				Match:   openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
				Rewrite: []openflow.Action{openflow.SetVLANVID(999)},
			}
		}
		return nil
	})
	defer mp.Close()

	alarms := 0
	mp.Right.OnAlarm = func(a core.Alarm) {
		if a.Kind == core.EventDetection {
			alarms++
		}
	}
	sink := traffic.NewUDPSink(h2, 5001)
	src := traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 10e6, PayloadSize: 500})
	src.Start()
	sched.RunFor(100 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	if got := sink.Stats().Unique; got != src.Sent {
		t.Fatalf("delivered %d of %d despite 2 honest paths", got, src.Sent)
	}
	if mp.Right.Stats().TagViolations == 0 {
		t.Fatal("VLAN rewrite went unnoticed")
	}
	if alarms == 0 {
		t.Fatal("no detection alarms for label violations")
	}
}

func TestMultipathTwoPathDetection(t *testing.T) {
	// §VII: two paths suffice for detection. A dropper on path 1 must
	// not affect delivery (detect-only releases the first copy) and
	// must raise detection alarms.
	sched, mp, h1, h2 := buildMultipath(t, 2, func(path, hop int) switching.Behavior {
		if path == 1 && hop == 0 {
			return &adversary.Drop{Match: openflow.MatchAll().WithDlDst(packet.HostMAC(2))}
		}
		return nil
	})
	defer mp.Close()

	detections := 0
	mp.Right.OnAlarm = func(a core.Alarm) {
		if a.Kind == core.EventDetection {
			detections++
		}
	}
	sink := traffic.NewUDPSink(h2, 5001)
	src := traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 10e6, PayloadSize: 500})
	src.Start()
	sched.RunFor(100 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	if got := sink.Stats().Unique; got != src.Sent {
		t.Fatalf("delivered %d of %d in detect-only mode", got, src.Sent)
	}
	if detections == 0 {
		t.Fatal("dropping path never detected")
	}
}

func TestMultipathPingRTT(t *testing.T) {
	sched, mp, h1, h2 := buildMultipath(t, 3, nil)
	defer mp.Close()
	p := traffic.NewPinger(h1, h2.Endpoint(0), traffic.PingerConfig{Count: 10, ID: 2})
	var res traffic.PingResult
	p.Run(func(r traffic.PingResult) { res = r })
	sched.RunFor(2 * time.Second)
	if res.Received != 10 {
		t.Fatalf("received %d of 10", res.Received)
	}
	if res.Duplicates != 0 {
		t.Fatalf("%d duplicate replies", res.Duplicates)
	}
}

func TestTestbedKinds(t *testing.T) {
	// Smoke-build each kind and push one ping through.
	p := base()
	for _, kind := range []topo.TestbedKind{topo.KindLinespeed, topo.KindCentral, topo.KindDup, topo.KindPOX} {
		tp := p
		tp.Kind = kind
		tp.K = 3
		tb := topo.BuildTestbed(tp)
		pinger := traffic.NewPinger(tb.H1, tb.H2.Endpoint(0), traffic.PingerConfig{Count: 3, ID: 1})
		var res traffic.PingResult
		pinger.Run(func(r traffic.PingResult) { res = r })
		tb.Sched.RunFor(3 * time.Second)
		if res.Received != 3 {
			t.Errorf("kind %v: received %d of 3", kind, res.Received)
		}
		tb.Close()
	}
}

func base() topo.TestbedParams {
	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 10 * time.Microsecond, QueueLimit: 100}
	return topo.TestbedParams{
		HostLink:        link,
		RouterLink:      link,
		CompareLink:     link,
		SwitchProcDelay: time.Microsecond,
		EdgeProcDelay:   time.Microsecond,
		Host:            traffic.HostConfig{EchoResponder: true},
		Compare: core.CompareNodeConfig{
			Engine:      core.Config{HoldTimeout: 10 * time.Millisecond},
			PerCopyCost: 5 * time.Microsecond,
		},
		CtrlLatency:    100 * time.Microsecond,
		POXPerCopyCost: 50 * time.Microsecond,
		POXEngine:      core.Config{HoldTimeout: 10 * time.Millisecond},
	}
}
