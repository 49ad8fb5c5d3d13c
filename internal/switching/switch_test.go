package switching

import (
	"testing"
	"time"

	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
)

// endpointNode is a minimal test node capturing deliveries.
type endpointNode struct {
	name  string
	ports netem.Ports
	got   []*packet.Packet
	gotOn []int
}

func (e *endpointNode) Name() string        { return e.name }
func (e *endpointNode) Ports() *netem.Ports { return &e.ports }
func (e *endpointNode) Receive(port int, pkt *packet.Packet) {
	e.got = append(e.got, pkt)
	e.gotOn = append(e.gotOn, port)
}

func testUDP(dst uint32) *packet.Packet {
	return packet.NewUDP(
		packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 1000},
		packet.Endpoint{MAC: packet.HostMAC(dst), IP: packet.HostIP(dst), Port: 2000},
		[]byte("payload"),
	)
}

// testbed: h0 -- sw -- h1, h2 on ports 0..2.
func testbed(t *testing.T) (*sim.Scheduler, *Switch, []*endpointNode) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := New(sched, Config{Name: "sw", DatapathID: 1, ProcDelay: time.Microsecond})
	hosts := make([]*endpointNode, 3)
	for i := range hosts {
		hosts[i] = &endpointNode{name: "h" + string(rune('0'+i))}
		net.Connect(hosts[i], 0, sw, i, netem.LinkConfig{Delay: time.Microsecond})
	}
	return sched, sw, hosts
}

func TestSwitchForwardsByFlowTable(t *testing.T) {
	sched, sw, hosts := testbed(t)
	sw.Table().Add(&openflow.FlowEntry{
		Priority: 10,
		Match:    openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
		Actions:  []openflow.Action{openflow.Output(1)},
	})
	hosts[0].ports.Send(0, testUDP(2))
	sched.Run()
	if len(hosts[1].got) != 1 {
		t.Fatalf("h1 got %d packets, want 1", len(hosts[1].got))
	}
	if len(hosts[2].got) != 0 {
		t.Fatal("h2 got a packet it should not have")
	}
	pc := sw.PortCounters(1)
	if pc.TxPackets != 1 {
		t.Fatalf("port 1 TxPackets = %d, want 1", pc.TxPackets)
	}
}

func TestSwitchDropsOnMissWithoutController(t *testing.T) {
	sched, sw, hosts := testbed(t)
	hosts[0].ports.Send(0, testUDP(2))
	sched.Run()
	if len(hosts[1].got)+len(hosts[2].got) != 0 {
		t.Fatal("table miss was forwarded")
	}
	if got := sw.Table().Stats().Misses; got != 1 {
		t.Fatalf("Misses = %d, want 1", got)
	}
}

func TestSwitchFloodAction(t *testing.T) {
	sched, sw, hosts := testbed(t)
	sw.Table().Add(&openflow.FlowEntry{
		Priority: 1,
		Match:    openflow.MatchAll(),
		Actions:  []openflow.Action{openflow.Output(openflow.PortFlood)},
	})
	hosts[0].ports.Send(0, testUDP(2))
	sched.Run()
	if len(hosts[0].got) != 0 {
		t.Fatal("flood echoed out the ingress port")
	}
	if len(hosts[1].got) != 1 || len(hosts[2].got) != 1 {
		t.Fatalf("flood delivered %d/%d, want 1/1", len(hosts[1].got), len(hosts[2].got))
	}
}

func TestSwitchHeaderRewriteThenOutput(t *testing.T) {
	sched, sw, hosts := testbed(t)
	sw.Table().Add(&openflow.FlowEntry{
		Priority: 10,
		Match:    openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
		Actions: []openflow.Action{
			openflow.Output(2), // pre-rewrite copy
			openflow.SetVLANVID(42),
			openflow.Output(1), // post-rewrite copy
		},
	})
	orig := testUDP(2)
	hosts[0].ports.Send(0, orig)
	sched.Run()
	if hosts[2].got[0].Eth.VLAN != nil {
		t.Fatal("pre-rewrite output was tagged")
	}
	if hosts[1].got[0].Eth.VLAN == nil || hosts[1].got[0].Eth.VLAN.VID != 42 {
		t.Fatal("post-rewrite output not tagged")
	}
	if orig.Eth.VLAN != nil {
		t.Fatal("switch mutated the original packet (immutability violated)")
	}
}

func TestSwitchProcessingDelay(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := New(sched, Config{Name: "sw", ProcDelay: 100 * time.Microsecond})
	a, b := &endpointNode{name: "a"}, &endpointNode{name: "b"}
	net.Connect(a, 0, sw, 0, netem.LinkConfig{})
	net.Connect(b, 0, sw, 1, netem.LinkConfig{})
	sw.Table().Add(&openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(), Actions: []openflow.Action{openflow.Output(1)}})
	a.ports.Send(0, testUDP(2))
	sched.Run()
	if sched.Now() != 100*time.Microsecond {
		t.Fatalf("delivery completed at %v, want exactly the pipeline delay", sched.Now())
	}
}

func TestSwitchOnTransmitTap(t *testing.T) {
	sched, sw, hosts := testbed(t)
	sw.Table().Add(&openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(), Actions: []openflow.Action{openflow.Output(1)}})
	var tapped []int
	sw.OnTransmit = func(outPort int, pkt *packet.Packet) { tapped = append(tapped, outPort) }
	hosts[0].ports.Send(0, testUDP(2))
	sched.Run()
	if len(tapped) != 1 || tapped[0] != 1 {
		t.Fatalf("tap saw %v, want [1]", tapped)
	}
}

// recordingController captures controller-plane traffic.
type recordingController struct {
	connected    []uint64
	packetIns    []openflow.PacketIn
	onPacketIn   func(conn *Conn, pin openflow.PacketIn)
	onConnected  func(features openflow.FeaturesReply)
	statsReplies []openflow.StatsReply
	others       []openflow.Message
}

func (rc *recordingController) SwitchConnected(conn *Conn, features openflow.FeaturesReply) {
	rc.connected = append(rc.connected, features.DatapathID)
	if rc.onConnected != nil {
		rc.onConnected(features)
	}
}

func (rc *recordingController) Handle(conn *Conn, msg openflow.Message, xid uint32) {
	switch v := msg.(type) {
	case openflow.PacketIn:
		rc.packetIns = append(rc.packetIns, v)
		if rc.onPacketIn != nil {
			rc.onPacketIn(conn, v)
		}
	case openflow.StatsReply:
		rc.statsReplies = append(rc.statsReplies, v)
	default:
		rc.others = append(rc.others, msg)
	}
}

func TestControlChannelHandshakeAndPacketIn(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := New(sched, Config{Name: "sw", DatapathID: 42, MissSendToController: true})
	a, b := &endpointNode{name: "a"}, &endpointNode{name: "b"}
	net.Connect(a, 0, sw, 0, netem.LinkConfig{})
	net.Connect(b, 0, sw, 1, netem.LinkConfig{})

	rc := &recordingController{}
	rc.onPacketIn = func(conn *Conn, pin openflow.PacketIn) {
		// React like a controller: install a rule and push the packet out.
		conn.InstallFlow(openflow.FlowMod{
			Match:    openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
			Priority: 5,
			Actions:  []openflow.Action{openflow.Output(1)},
		})
		conn.PacketOut(1, pin.Data)
	}
	const latency = 200 * time.Microsecond
	sw.ConnectController(rc, latency)
	sched.RunFor(10 * time.Millisecond)
	if len(rc.connected) != 1 || rc.connected[0] != 42 {
		t.Fatalf("handshake: connected=%v", rc.connected)
	}

	// First packet: miss → controller → rule installed + packet out.
	a.ports.Send(0, testUDP(2))
	sched.RunFor(10 * time.Millisecond)
	if len(rc.packetIns) != 1 {
		t.Fatalf("packet-ins = %d, want 1", len(rc.packetIns))
	}
	if rc.packetIns[0].InPort != 0 {
		t.Fatalf("packet-in in_port = %d, want 0", rc.packetIns[0].InPort)
	}
	if len(b.got) != 1 {
		t.Fatalf("b got %d packets after packet-out, want 1", len(b.got))
	}

	// Second packet: hardware path, no controller involvement.
	a.ports.Send(0, testUDP(2))
	sched.RunFor(10 * time.Millisecond)
	if len(rc.packetIns) != 1 {
		t.Fatal("second packet still went to the controller")
	}
	if len(b.got) != 2 {
		t.Fatalf("b got %d packets, want 2", len(b.got))
	}
}

func TestControlChannelLatency(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := New(sched, Config{Name: "sw", MissSendToController: true})
	a := &endpointNode{name: "a"}
	net.Connect(a, 0, sw, 0, netem.LinkConfig{})

	var arrival time.Duration
	rc := &recordingController{}
	rc.onPacketIn = func(conn *Conn, pin openflow.PacketIn) { arrival = sched.Now() }
	const latency = 500 * time.Microsecond
	sw.ConnectController(rc, latency)
	sched.Run()

	sent := sched.Now()
	a.ports.Send(0, testUDP(9))
	sched.Run()
	if got := arrival - sent; got != latency {
		t.Fatalf("packet-in arrived after %v, want the channel latency %v", got, latency)
	}
}

func TestFlowStatsOverControlChannel(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := New(sched, Config{Name: "sw", DatapathID: 7})
	a, b := &endpointNode{name: "a"}, &endpointNode{name: "b"}
	net.Connect(a, 0, sw, 0, netem.LinkConfig{})
	net.Connect(b, 0, sw, 1, netem.LinkConfig{})

	rc := &recordingController{}
	conn := sw.ConnectController(rc, 100*time.Microsecond)
	sched.Run()

	conn.InstallFlow(openflow.FlowMod{
		Match:    openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
		Priority: 9,
		Actions:  []openflow.Action{openflow.Output(1)},
	})
	sched.Run()
	for i := 0; i < 4; i++ {
		a.ports.Send(0, testUDP(2))
	}
	sched.Run()

	conn.Send(openflow.StatsRequest{
		StatsType: openflow.StatsFlow,
		Flow:      &openflow.FlowStatsRequest{Match: openflow.MatchAll(), OutPort: openflow.PortNone},
	})
	sched.Run()
	if len(rc.statsReplies) != 1 {
		t.Fatalf("stats replies = %d, want 1", len(rc.statsReplies))
	}
	fs := rc.statsReplies[0].Flow
	if len(fs) != 1 || fs[0].PacketCount != 4 {
		t.Fatalf("flow stats = %+v, want one entry with 4 packets", fs)
	}

	// Port stats too.
	conn.Send(openflow.StatsRequest{StatsType: openflow.StatsPort, Port: &openflow.PortStatsRequest{PortNo: openflow.PortNone}})
	sched.Run()
	if len(rc.statsReplies) != 2 {
		t.Fatalf("stats replies = %d, want 2", len(rc.statsReplies))
	}
	var tx uint64
	for _, ps := range rc.statsReplies[1].Port {
		tx += ps.TxPackets
	}
	if tx != 4 {
		t.Fatalf("port stats TxPackets total = %d, want 4", tx)
	}
}

// wantRefused sends fm to a switch holding one rule and fails unless the
// rule is untouched and the controller got exactly one
// OFPET_FLOW_MOD_FAILED / OFPFMFC_UNSUPPORTED error.
func wantRefused(t *testing.T, fm openflow.FlowMod) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := New(sched, Config{Name: "sw"})
	a := &endpointNode{name: "a"}
	net.Connect(a, 0, sw, 0, netem.LinkConfig{})
	rc := &recordingController{}
	conn := sw.ConnectController(rc, 0)
	sched.Run()
	conn.InstallFlow(openflow.FlowMod{Match: openflow.MatchAll(), Priority: 3, Actions: []openflow.Action{openflow.Output(0)}})
	sched.Run()
	if sw.Table().Len() != 1 {
		t.Fatal("flow not installed")
	}
	before := sw.Table().Entries()[0]
	conn.Send(fm)
	sched.Run()
	if n := sw.Table().Len(); n != 1 || sw.Table().Entries()[0] != before {
		t.Fatalf("command %d idle %d hard %d changed the table: %d entries", fm.Command, fm.IdleTimeout, fm.HardTimeout, n)
	}
	var e openflow.Error
	if len(rc.others) == 1 {
		e, _ = rc.others[0].(openflow.Error)
	}
	if e.ErrType != 3 || e.Code != 5 {
		t.Fatalf("command %d idle %d hard %d: replies %+v, want one Error{ErrType: 3, Code: 5}", fm.Command, fm.IdleTimeout, fm.HardTimeout, rc.others)
	}
}

// TestFlowDeleteViaFlowMod: rules leave a switch only when it crashes,
// so both delete commands are refused with an error and remove nothing.
func TestFlowDeleteViaFlowMod(t *testing.T) {
	for _, cmd := range []uint16{openflow.FlowDelete, openflow.FlowDeleteStrict} {
		wantRefused(t, openflow.FlowMod{Match: openflow.MatchAll(), Priority: 3, Command: cmd, OutPort: openflow.PortNone})
	}
}

// TestTimedFlowModRefused: a switch has no flow timeouts, so an add with
// an idle or a hard timeout is refused with an error and installs nothing.
func TestTimedFlowModRefused(t *testing.T) {
	m := openflow.MatchAll().WithDlDst(packet.HostMAC(2))
	wantRefused(t, openflow.FlowMod{Match: m, Priority: 4, IdleTimeout: 1, Actions: []openflow.Action{openflow.Output(0)}})
	wantRefused(t, openflow.FlowMod{Match: m, Priority: 4, HardTimeout: 1, Command: openflow.FlowModify, Actions: []openflow.Action{openflow.Output(0)}})
}

func TestEchoOverControlChannel(t *testing.T) {
	sched := sim.NewScheduler()
	sw := New(sched, Config{Name: "sw"})
	echoed := false
	rc := &recordingController{}
	conn := sw.ConnectController(rc, 50*time.Microsecond)
	sched.Run()
	// Hijack Handle via a wrapper is overkill; instead check via counters:
	before := conn.ToController
	conn.Send(openflow.EchoRequest{Data: []byte("hi")})
	sched.Run()
	if conn.ToController != before+1 {
		t.Fatal("no echo reply came back")
	}
	_ = echoed
}

func TestPacketOutGarbageYieldsError(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := New(sched, Config{Name: "sw"})
	a := &endpointNode{name: "a"}
	net.Connect(a, 0, sw, 0, netem.LinkConfig{})
	rc := &recordingController{}
	conn := sw.ConnectController(rc, 0)
	sched.Run()

	conn.Send(openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   openflow.PortNone,
		Actions:  []openflow.Action{openflow.Output(0)},
		Data:     []byte{0xde, 0xad}, // not a parseable frame
	})
	sched.Run()
	gotError := false
	for _, m := range rc.others {
		if _, ok := m.(openflow.Error); ok {
			gotError = true
		}
	}
	if !gotError {
		t.Fatal("switch did not report an Error for garbage packet-out data")
	}
	if len(a.got) != 0 {
		t.Fatal("garbage was transmitted")
	}
}

func TestFeaturesReplyListsPorts(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := New(sched, Config{Name: "sw", DatapathID: 3})
	nodes := make([]*endpointNode, 3)
	for i := range nodes {
		nodes[i] = &endpointNode{name: string(rune('a' + i))}
		net.Connect(nodes[i], 0, sw, i*2, netem.LinkConfig{}) // ports 0, 2, 4
	}
	var features openflow.FeaturesReply
	rc := &recordingController{}
	rc.onConnected = func(fr openflow.FeaturesReply) { features = fr }
	sw.ConnectController(rc, 0)
	sched.Run()

	if features.DatapathID != 3 {
		t.Fatalf("dpid = %d, want 3", features.DatapathID)
	}
	if len(features.Ports) != 3 {
		t.Fatalf("ports = %d, want 3", len(features.Ports))
	}
	want := []uint16{0, 2, 4}
	for i, p := range features.Ports {
		if p.PortNo != want[i] {
			t.Fatalf("port %d = %d, want %d", i, p.PortNo, want[i])
		}
	}
}

func TestLegacyRouterForwards(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	lr := NewLegacy(sched, "legacy", time.Microsecond, 10)
	a, b := &endpointNode{name: "a"}, &endpointNode{name: "b"}
	net.Connect(a, 0, lr, 0, netem.LinkConfig{})
	net.Connect(b, 0, lr, 1, netem.LinkConfig{})
	lr.AddMACRoute(packet.HostMAC(2), 1)

	a.ports.Send(0, testUDP(2)) // routed
	a.ports.Send(0, testUDP(9)) // no route: dropped
	sched.Run()

	if len(b.got) != 1 {
		t.Fatalf("b received %d, want 1", len(b.got))
	}
	if lr.Forwarded != 1 || lr.Dropped != 1 {
		t.Fatalf("forwarded=%d dropped=%d, want 1/1", lr.Forwarded, lr.Dropped)
	}
}

func TestLegacyRouterQueueOverflow(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	lr := NewLegacy(sched, "legacy", time.Millisecond, 2)
	a, b := &endpointNode{name: "a"}, &endpointNode{name: "b"}
	net.Connect(a, 0, lr, 0, netem.LinkConfig{})
	net.Connect(b, 0, lr, 1, netem.LinkConfig{})
	lr.AddMACRoute(packet.HostMAC(2), 1)
	for i := 0; i < 10; i++ {
		a.ports.Send(0, testUDP(2))
	}
	sched.Run()
	if len(b.got) != 2 {
		t.Fatalf("b received %d, want 2 (queue limit)", len(b.got))
	}
	if lr.Dropped != 8 {
		t.Fatalf("Dropped = %d, want 8", lr.Dropped)
	}
}

func TestSwitchAddMACRoute(t *testing.T) {
	sched, sw, hosts := testbed(t)
	sw.AddMACRoute(packet.HostMAC(2), 1)
	hosts[0].ports.Send(0, testUDP(2))
	sched.Run()
	if len(hosts[1].got) != 1 {
		t.Fatal("AddMACRoute rule did not forward")
	}
}

func TestPortCountersDenseSparseAndStable(t *testing.T) {
	sched, sw, hosts := testbed(t)
	// Pointers must be stable across later first-touches of other ports,
	// dense or sparse: callers hold them while traffic keeps counting.
	pc1 := sw.PortCounters(1)
	neg := sw.PortCounters(-3)
	big := sw.PortCounters(99999)
	sw.PortCounters(900) // grow the dense slice after pc1 was handed out

	sw.Table().Add(&openflow.FlowEntry{
		Priority: 10,
		Match:    openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
		Actions:  []openflow.Action{openflow.Output(1)},
	})
	hosts[0].ports.Send(0, testUDP(2))
	sched.Run()

	if pc1 != sw.PortCounters(1) || neg != sw.PortCounters(-3) || big != sw.PortCounters(99999) {
		t.Fatal("PortCounters pointer not stable across calls")
	}
	if pc1.TxPackets != 1 {
		t.Fatalf("TxPackets via retained pointer = %d, want 1", pc1.TxPackets)
	}
	if neg.RxPackets != 0 || big.RxPackets != 0 {
		t.Fatal("sparse counters spuriously counted")
	}
}
