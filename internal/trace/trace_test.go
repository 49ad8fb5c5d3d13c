package trace_test

import (
	"strings"
	"testing"
	"time"

	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
	"netco/internal/trace"
	"netco/internal/traffic"
)

func testFrame(n uint32) *packet.Packet {
	return packet.NewUDP(
		packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 1},
		packet.Endpoint{MAC: packet.HostMAC(n), IP: packet.HostIP(n), Port: 2},
		[]byte("x"),
	)
}

func TestTracerCapturesSwitchTransmissions(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := switching.New(sched, switching.Config{Name: "sw"})
	h1 := traffic.NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{})
	h2 := traffic.NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{})
	net.Connect(h1, 0, sw, 0, netem.LinkConfig{})
	net.Connect(h2, 0, sw, 1, netem.LinkConfig{})
	sw.Table().Add(&openflow.FlowEntry{
		Priority: 1,
		Match:    openflow.MatchAll().WithDlDst(h2.MAC()),
		Actions:  []openflow.Action{openflow.Output(1)},
	})

	tr := trace.New(16)
	tr.Attach(sw)
	for i := 0; i < 5; i++ {
		h1.Send(testFrame(2))
	}
	sched.Run()

	if tr.Total() != 5 {
		t.Fatalf("Total = %d, want 5", tr.Total())
	}
	recs := tr.Records()
	if len(recs) != 5 {
		t.Fatalf("retained %d, want 5", len(recs))
	}
	for _, r := range recs {
		if r.Node != "sw" || r.Port != 1 {
			t.Fatalf("record %+v, want sw:1", r)
		}
	}
}

func TestTracerChainsExistingHook(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := switching.New(sched, switching.Config{Name: "sw"})
	h1 := traffic.NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{})
	h2 := traffic.NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{})
	net.Connect(h1, 0, sw, 0, netem.LinkConfig{})
	net.Connect(h2, 0, sw, 1, netem.LinkConfig{})
	sw.Table().Add(&openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll(), Actions: []openflow.Action{openflow.Output(1)}})

	prevCalls := 0
	sw.OnTransmit = func(int, *packet.Packet) { prevCalls++ }
	tr := trace.New(0)
	tr.Attach(sw)
	h1.Send(testFrame(2))
	sched.Run()
	if prevCalls != 1 || tr.Total() != 1 {
		t.Fatalf("prev=%d traced=%d, want 1/1", prevCalls, tr.Total())
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := trace.New(4)
	for i := 0; i < 10; i++ {
		tr.Capture(time.Duration(i), "n", i, testFrame(2))
	}
	if tr.Total() != 10 {
		t.Fatalf("Total = %d, want 10", tr.Total())
	}
	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("retained %d, want 4", len(recs))
	}
	// Oldest-first: ports 6,7,8,9.
	for i, r := range recs {
		if r.Port != 6+i {
			t.Fatalf("record %d port %d, want %d", i, r.Port, 6+i)
		}
	}
}

func TestTracerRecordSurvivesFrameRecycle(t *testing.T) {
	var pool packet.Pool
	p := pool.Get()
	p.Eth.Src = packet.HostMAC(1)
	p.Eth.Dst = packet.HostMAC(2)
	p.Eth.EtherType = packet.EtherTypeIPv4
	p.IP = &packet.IPv4{
		TTL: 64, Protocol: packet.ProtoUDP,
		Src: packet.HostIP(1), Dst: packet.HostIP(2),
	}
	p.UDP = &packet.UDP{SrcPort: 1111, DstPort: 2222}
	p.Payload = append(p.Payload, []byte("payload")...)
	p.Meta.UID = 42

	tr := trace.New(8)
	tr.Capture(time.Millisecond, "sw", 3, p)
	want := tr.Records()[0]

	// Consumer finishes with the frame; the pool hands it back out as a
	// completely different packet.
	packet.Recycle(p)
	q := pool.Get()
	if q != p {
		t.Fatalf("pool did not reuse the frame; test needs the aliasing case")
	}
	q.Eth.Src = packet.HostMAC(9)
	q.Eth.Dst = packet.HostMAC(10)
	q.IP = &packet.IPv4{TTL: 1, Protocol: packet.ProtoICMP,
		Src: packet.HostIP(9), Dst: packet.HostIP(10)}
	q.ICMP = &packet.ICMP{Type: 8, ID: 7, Seq: 1}
	q.Meta.UID = 1000

	got := tr.Records()[0]
	if got != want {
		t.Fatalf("record changed after frame recycle:\n got %v\nwant %v", got, want)
	}
	if got.Pkt.SrcPort != 1111 || got.Pkt.DstPort != 2222 || got.Pkt.UID != 42 {
		t.Fatalf("record lost captured fields: %+v", got.Pkt)
	}
	if !strings.Contains(got.String(), "udp") {
		t.Fatalf("record no longer renders as the captured UDP frame: %v", got)
	}
}

// Wraparound: once capacity is exceeded, Records stays oldest-first and
// Total keeps counting evicted records.
func TestTracerWraparoundOrderAndTotals(t *testing.T) {
	tr := trace.New(3)
	for i := 0; i < 10; i += 2 {
		tr.Capture(time.Duration(i)*time.Millisecond, "n", i, testFrame(2))
	}

	// i = 0,2,4,6,8: total 5, ring keeps last 3.
	if tr.Total() != 5 {
		t.Fatalf("Total = %d, want 5", tr.Total())
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d, want capacity 3", len(recs))
	}
	wantPorts := []int{4, 6, 8}
	for i, r := range recs {
		if r.Port != wantPorts[i] {
			t.Fatalf("record %d port = %d, want %d (oldest first)", i, r.Port, wantPorts[i])
		}
		if r.At != time.Duration(wantPorts[i])*time.Millisecond {
			t.Fatalf("record %d At = %v, want %dms", i, r.At, wantPorts[i])
		}
	}

	// Exactly at a multiple of capacity the ring is full and still
	// oldest-first (next == 0 edge).
	tr2 := trace.New(4)
	for i := 0; i < 8; i++ {
		tr2.Capture(0, "n", i, testFrame(2))
	}
	for i, r := range tr2.Records() {
		if r.Port != 4+i {
			t.Fatalf("full-wrap record %d port = %d, want %d", i, r.Port, 4+i)
		}
	}
}
