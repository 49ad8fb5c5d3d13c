package controller_test

import (
	"testing"
	"time"

	"netco/internal/controller"
	"netco/internal/core"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
	"netco/internal/traffic"
)

const ctrlLatency = 100 * time.Microsecond

var lanLink = netem.LinkConfig{Bandwidth: 1e9, Delay: 5 * time.Microsecond, QueueLimit: 100}

// buildPOX3 assembles the POX3 scenario: trusted edges are OpenFlow
// switches whose compare runs on the controller.
func buildPOX3(t *testing.T, k int) (*sim.Scheduler, *controller.CompareApp, *traffic.Host, *traffic.Host) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)

	h1 := traffic.NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{EchoResponder: true})
	h2 := traffic.NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{EchoResponder: true})
	s1 := switching.New(sched, switching.Config{Name: "s1", DatapathID: 1, ProcDelay: time.Microsecond})
	s2 := switching.New(sched, switching.Config{Name: "s2", DatapathID: 2, ProcDelay: time.Microsecond})

	// Port 0 of each edge faces its host; ports 1..k face the routers.
	net.Connect(h1, traffic.HostPort, s1, 0, lanLink)
	net.Connect(h2, traffic.HostPort, s2, 0, lanLink)
	routerPorts := make([]uint16, 0, k)
	for i := 0; i < k; i++ {
		r := switching.New(sched, switching.Config{Name: "r" + string(rune('0'+i)), ProcDelay: time.Microsecond})
		net.Connect(s1, 1+i, r, 0, lanLink)
		net.Connect(s2, 1+i, r, 1, lanLink)
		r.Table().Add(&openflow.FlowEntry{
			Priority: 100, Match: openflow.MatchAll().WithDlDst(h2.MAC()),
			Actions: []openflow.Action{openflow.Output(1)},
		})
		r.Table().Add(&openflow.FlowEntry{
			Priority: 100, Match: openflow.MatchAll().WithDlDst(h1.MAC()),
			Actions: []openflow.Action{openflow.Output(0)},
		})
		routerPorts = append(routerPorts, uint16(1+i))
	}

	app := controller.NewCompareApp(sched, controller.CompareAppConfig{
		Engine:      core.Config{HoldTimeout: 20 * time.Millisecond},
		PerCopyCost: 50 * time.Microsecond,
	})
	app.ConfigureDatapath(1, 0, routerPorts, map[packet.MAC]uint16{h1.MAC(): 0})
	app.ConfigureDatapath(2, 0, routerPorts, map[packet.MAC]uint16{h2.MAC(): 0})
	s1.ConnectController(app, ctrlLatency)
	s2.ConnectController(app, ctrlLatency)
	sched.RunFor(10 * time.Millisecond)
	return sched, app, h1, h2
}

func TestCompareAppEndToEnd(t *testing.T) {
	sched, app, h1, h2 := buildPOX3(t, 3)

	sink := traffic.NewUDPSink(h2, 5001)
	src := traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 5e6, PayloadSize: 500})
	src.Start()
	sched.RunFor(200 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent {
		t.Fatalf("delivered %d of %d", st.Unique, src.Sent)
	}
	if st.Duplicates != 0 {
		t.Fatalf("%d duplicates leaked", st.Duplicates)
	}
	if app.PacketIns == 0 || app.PacketOuts == 0 {
		t.Fatalf("controller path unused: ins=%d outs=%d", app.PacketIns, app.PacketOuts)
	}
	// Every copy rides the controller channel: 3 per packet.
	if app.PacketIns != 3*src.Sent {
		t.Fatalf("PacketIns = %d, want %d", app.PacketIns, 3*src.Sent)
	}
}

func TestCompareAppPingSlowerThanDataPlaneCompare(t *testing.T) {
	// POX3's RTT must exceed a data-plane compare's by roughly the two
	// extra control-channel crossings — the paper's §V-B explanation.
	sched, _, h1, h2 := buildPOX3(t, 3)
	p := traffic.NewPinger(h1, h2.Endpoint(0), traffic.PingerConfig{Count: 20, ID: 7})
	var res traffic.PingResult
	p.Run(func(r traffic.PingResult) { res = r })
	sched.RunFor(3 * time.Second)

	if res.Received != 20 {
		t.Fatalf("received %d of 20", res.Received)
	}
	rtt := res.RTT.MeanDuration()
	// Two controller detours per direction ≈ 4 × latency + 4 × cost ≈
	// 0.8 ms extra at minimum.
	if rtt < 500*time.Microsecond {
		t.Fatalf("POX3 RTT = %v — too fast to be the controller path", rtt)
	}
}

func TestMonitorCollectsStats(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := switching.New(sched, switching.Config{Name: "sw", DatapathID: 9})
	sw.SetMissSendToController(true)
	h1 := traffic.NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{EchoResponder: true})
	h2 := traffic.NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{EchoResponder: true})
	net.Connect(h1, traffic.HostPort, sw, 0, lanLink)
	net.Connect(h2, traffic.HostPort, sw, 1, lanLink)

	// Monitor wraps the routing app: forwarding still works, stats
	// accumulate on the side.
	app := controller.NewL2Routing(sched)
	defer app.Close()
	mon := controller.NewMonitor(sched, app)
	updates := 0
	mon.OnUpdate = func(dpid uint64, snap controller.StatsSnapshot) { updates++ }
	sw.ConnectController(mon, ctrlLatency)
	sched.RunFor(20 * time.Millisecond)

	// Bidirectional warm-up so the routing app learns both hosts and
	// installs their rules.
	pinger := traffic.NewPinger(h1, h2.Endpoint(0), traffic.PingerConfig{Count: 5, ID: 2})
	pinger.Run(nil)
	sched.RunFor(200 * time.Millisecond)

	sink := traffic.NewUDPSink(h2, 5001)
	src := traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 5e6, PayloadSize: 500})
	src.Start()
	sched.RunFor(2 * time.Second)
	src.Stop()
	mon.Close()
	sched.RunFor(100 * time.Millisecond)

	if got := sink.Stats().Unique; got != src.Sent {
		t.Fatalf("forwarding broken under the monitor: %d of %d", got, src.Sent)
	}
	snap := mon.Snapshot(9)
	if snap.At == 0 {
		t.Fatal("no snapshot collected")
	}
	if snap.TxPackets() == 0 {
		t.Fatal("port counters empty")
	}
	// The routed flow rule's counter tracks the traffic.
	var flowPackets uint64
	for _, f := range snap.Flows {
		flowPackets += f.PacketCount
	}
	if flowPackets == 0 {
		t.Fatal("flow counters empty")
	}
	if updates < 4 {
		t.Fatalf("updates = %d, want several polls over 2s", updates)
	}
	// Screening use: most traffic left via h2's port.
	if snap.PortTx(1) < snap.PortTx(0) {
		t.Fatalf("port tx skew wrong: port1=%d port0=%d", snap.PortTx(1), snap.PortTx(0))
	}
}
