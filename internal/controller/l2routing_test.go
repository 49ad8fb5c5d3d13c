package controller_test

import (
	"testing"
	"time"

	"netco/internal/controller"
	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// buildRoutedFatTree connects every switch of a 4-ary fat tree to an
// L2Routing controller and attaches two hosts in different pods.
func buildRoutedFatTree(t *testing.T) (*sim.Scheduler, *controller.L2Routing, *traffic.Host, *traffic.Host) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)
	link := netem.LinkConfig{Bandwidth: 1e9, Delay: 5 * time.Microsecond, QueueLimit: 200}
	ft := topo.BuildFatTree(net, topo.FatTreeParams{
		Arity:           4,
		Link:            link,
		SwitchProcDelay: time.Microsecond,
		SwitchProcQueue: 1000,
	})

	// Hosts attach before the switches connect so the host ports appear
	// in the features replies (real switches would send PortStatus).
	ha := traffic.NewHost(sched, "ha", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{EchoResponder: true})
	hb := traffic.NewHost(sched, "hb", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{EchoResponder: true})
	net.Connect(ha, traffic.HostPort, ft.Pods[0].Edge[0], ft.EdgeHostPortOf(0), link)
	net.Connect(hb, traffic.HostPort, ft.Pods[2].Edge[1], ft.EdgeHostPortOf(1), link)

	app := controller.NewL2Routing(sched)
	for _, c := range ft.Cores {
		c.SetMissSendToController(true)
		c.ConnectController(app, 100*time.Microsecond)
	}
	for _, pod := range ft.Pods {
		for _, sw := range pod.Agg {
			sw.SetMissSendToController(true)
			sw.ConnectController(app, 100*time.Microsecond)
		}
		for _, sw := range pod.Edge {
			sw.SetMissSendToController(true)
			sw.ConnectController(app, 100*time.Microsecond)
		}
	}

	// Let handshakes finish and discovery converge (a few probe rounds).
	sched.RunFor(1200 * time.Millisecond)
	return sched, app, ha, hb
}

func TestDiscoveryLearnsFatTreeTopology(t *testing.T) {
	sched, app, _, _ := buildRoutedFatTree(t)
	defer app.Close()
	_ = sched

	d := app.Discovery()
	if got := len(d.Dpids()); got != 20 {
		t.Fatalf("connected switches = %d, want 20", got)
	}
	// A 4-ary fat tree has 32 inter-switch links: 16 edge↔agg + 16
	// agg↔core. Every one must be discovered in both directions.
	links := 0
	for _, dpid := range d.Dpids() {
		links += len(d.Neighbors(dpid))
	}
	if links != 64 {
		t.Fatalf("directed link entries = %d, want 64", links)
	}
	// Host-facing ports are edge ports.
	if !d.IsEdgePort(controller.PortID{Dpid: dpidOfEdge(0, 0), Port: 0}) {
		t.Fatal("host port misclassified as inter-switch")
	}
}

// dpidOfEdge mirrors BuildFatTree's dpid assignment: cores first (1..4),
// then per pod: agg, agg, edge, edge.
func dpidOfEdge(pod, idx int) uint64 {
	return uint64(4 + pod*4 + 2 + idx + 1)
}

func TestL2RoutingCrossPodTraffic(t *testing.T) {
	sched, app, ha, hb := buildRoutedFatTree(t)
	defer app.Close()

	// ARP first — the controller floods it to edge ports only.
	okCh := false
	ha.Resolve(hb.IP(), func(mac packet.MAC, ok bool) { okCh = ok && mac == hb.MAC() })
	sched.RunFor(200 * time.Millisecond)
	if !okCh {
		t.Fatal("ARP across the routed fabric failed")
	}

	// Ping and UDP ride shortest paths installed on demand.
	pinger := traffic.NewPinger(ha, hb.Endpoint(0), traffic.PingerConfig{Count: 10, ID: 3})
	var res traffic.PingResult
	pinger.Run(func(r traffic.PingResult) { res = r })
	sched.RunFor(2 * time.Second)
	if res.Received != 10 {
		t.Fatalf("ping %d/10 across pods", res.Received)
	}

	sink := traffic.NewUDPSink(hb, 5001)
	src := traffic.NewUDPSource(ha, 4001, hb.Endpoint(5001), traffic.UDPSourceConfig{Rate: 50e6, PayloadSize: 1200})
	src.Start()
	sched.RunFor(500 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent || st.Duplicates != 0 {
		t.Fatalf("udp %d/%d dups=%d", st.Unique, src.Sent, st.Duplicates)
	}
	if app.PathsInstalled == 0 {
		t.Fatal("no shortest paths were installed")
	}
	// Host locations were learned at the right edges.
	if loc, ok := app.HostLocation(ha.MAC()); !ok || loc.Port != 0 {
		t.Fatalf("ha location %+v", loc)
	}
	if loc, ok := app.HostLocation(hb.MAC()); !ok || loc.Port != 1 {
		t.Fatalf("hb location %+v", loc)
	}
}

func TestL2RoutingSteadyStateBypassesController(t *testing.T) {
	sched, app, ha, hb := buildRoutedFatTree(t)
	defer app.Close()

	// Warm the path.
	pinger := traffic.NewPinger(ha, hb.Endpoint(0), traffic.PingerConfig{Count: 3, ID: 1})
	pinger.Run(nil)
	sched.RunFor(time.Second)

	before := app.PacketIns
	src := traffic.NewUDPSource(ha, 4001, hb.Endpoint(5001), traffic.UDPSourceConfig{Rate: 20e6, PayloadSize: 1000})
	sink := traffic.NewUDPSink(hb, 5001)
	src.Start()
	sched.RunFor(300 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	if sink.Stats().Unique != src.Sent {
		t.Fatalf("udp %d/%d", sink.Stats().Unique, src.Sent)
	}
	if app.PacketIns-before > 2 {
		t.Fatalf("%d packet-ins in steady state — rules not used", app.PacketIns-before)
	}
}
