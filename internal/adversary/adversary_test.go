package adversary

import (
	"testing"
	"time"

	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
)

type sinkNode struct {
	name  string
	ports netem.Ports
	got   []*packet.Packet
}

func (s *sinkNode) Name() string        { return s.name }
func (s *sinkNode) Ports() *netem.Ports { return &s.ports }
func (s *sinkNode) Receive(port int, pkt *packet.Packet) {
	s.got = append(s.got, pkt)
}

// rig: in --sw-- out0/out1, flow rule forwards dst HostMAC(2) to port 1.
func rig(t *testing.T, b switching.Behavior) (*sim.Scheduler, *sinkNode, *sinkNode, *sinkNode) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)
	sw := switching.New(sched, switching.Config{Name: "sw"})
	in := &sinkNode{name: "in"}
	out0 := &sinkNode{name: "out0"}
	out1 := &sinkNode{name: "out1"}
	net.Connect(in, 0, sw, 0, netem.LinkConfig{})
	net.Connect(out0, 0, sw, 1, netem.LinkConfig{})
	net.Connect(out1, 0, sw, 2, netem.LinkConfig{})
	sw.Table().Add(&openflow.FlowEntry{
		Priority: 10,
		Match:    openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
		Actions:  []openflow.Action{openflow.Output(1)},
	})
	if b != nil {
		sw.SetBehavior(b)
	}
	return sched, in, out0, out1
}

func victim() *packet.Packet {
	return packet.NewUDP(
		packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 1},
		packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 2},
		[]byte("confidential"),
	)
}

func TestRerouteRedirects(t *testing.T) {
	b := &Reroute{Match: openflow.MatchAll().WithDlDst(packet.HostMAC(2)), ToPort: 2}
	sched, in, out0, out1 := rig(t, b)
	in.ports.Send(0, victim())
	sched.Run()
	if len(out0.got) != 0 {
		t.Fatal("victim still reached the honest port")
	}
	if len(out1.got) != 1 {
		t.Fatal("victim not rerouted")
	}
	if b.Rerouted != 1 {
		t.Fatalf("Rerouted = %d, want 1", b.Rerouted)
	}
}

func TestRerouteLeavesOthersAlone(t *testing.T) {
	b := &Reroute{Match: openflow.MatchAll().WithDlDst(packet.HostMAC(9)), ToPort: 2}
	sched, in, out0, out1 := rig(t, b)
	in.ports.Send(0, victim())
	sched.Run()
	if len(out0.got) != 1 || len(out1.got) != 0 {
		t.Fatal("non-matching packet was affected")
	}
}

func TestMirrorDuplicates(t *testing.T) {
	b := &Mirror{Match: openflow.MatchAll().WithDlDst(packet.HostMAC(2)), ToPort: 2}
	sched, in, out0, out1 := rig(t, b)
	in.ports.Send(0, victim())
	sched.Run()
	if len(out0.got) != 1 {
		t.Fatal("original copy lost")
	}
	if len(out1.got) != 1 {
		t.Fatal("mirror copy missing")
	}
	if b.Mirrored != 1 {
		t.Fatalf("Mirrored = %d, want 1", b.Mirrored)
	}
}

func TestDropDiscards(t *testing.T) {
	b := &Drop{Match: openflow.MatchAll().WithDlDst(packet.HostMAC(2))}
	sched, in, out0, out1 := rig(t, b)
	in.ports.Send(0, victim())
	sched.Run()
	if len(out0.got)+len(out1.got) != 0 {
		t.Fatal("dropped packet delivered")
	}
	if b.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", b.Dropped)
	}
}

func TestDropProbabilistic(t *testing.T) {
	b := &Drop{
		Match:       openflow.MatchAll(),
		Probability: 0.5,
		Rng:         sim.NewRNG(3),
	}
	sched, in, out0, _ := rig(t, b)
	for i := 0; i < 200; i++ {
		in.ports.Send(0, victim())
	}
	sched.Run()
	if b.Dropped < 60 || b.Dropped > 140 {
		t.Fatalf("Dropped = %d of 200 at p=0.5", b.Dropped)
	}
	if len(out0.got) != 200-int(b.Dropped) {
		t.Fatal("accounting mismatch")
	}
}

func TestModifyRewritesWithoutMutatingOriginal(t *testing.T) {
	b := &Modify{
		Match:   openflow.MatchAll(),
		Rewrite: []openflow.Action{openflow.SetVLANVID(666)},
	}
	sched, in, out0, _ := rig(t, b)
	orig := victim()
	in.ports.Send(0, orig)
	sched.Run()
	if len(out0.got) != 1 || out0.got[0].Eth.VLAN == nil || out0.got[0].Eth.VLAN.VID != 666 {
		t.Fatal("packet not rewritten")
	}
	if orig.Eth.VLAN != nil {
		t.Fatal("original packet mutated — immutability violated")
	}
}

func TestReplayEmitsExtraCopies(t *testing.T) {
	b := &Replay{Match: openflow.MatchAll(), Extra: 3}
	sched, in, out0, _ := rig(t, b)
	in.ports.Send(0, victim())
	sched.Run()
	if len(out0.got) != 4 {
		t.Fatalf("delivered %d copies, want 4", len(out0.got))
	}
	if b.Replayed != 3 {
		t.Fatalf("Replayed = %d, want 3", b.Replayed)
	}
}

func TestFloodGenerates(t *testing.T) {
	f := &Flood{
		OutPort:  1,
		Rate:     10000,
		Template: victim(),
		Vary:     true,
		Duration: 100 * time.Millisecond,
	}
	sched, _, out0, _ := rig(t, f)
	sched.RunUntil(200 * time.Millisecond)
	if f.Injected < 900 || f.Injected > 1100 {
		t.Fatalf("Injected = %d in 100ms at 10kpps, want ≈1000", f.Injected)
	}
	if uint64(len(out0.got)) != f.Injected {
		t.Fatalf("delivered %d of %d injected", len(out0.got), f.Injected)
	}
	// Vary makes frames distinct.
	if len(out0.got) > 1 {
		a := out0.got[0].Marshal()
		bts := out0.got[1].Marshal()
		if string(a) == string(bts) {
			t.Fatal("varied flood produced identical frames")
		}
	}
}

func TestFloodStop(t *testing.T) {
	f := &Flood{OutPort: 1, Rate: 10000, Template: victim()}
	sched, _, out0, _ := rig(t, f)
	sched.RunUntil(50 * time.Millisecond)
	f.Stop()
	n := len(out0.got)
	sched.RunUntil(200 * time.Millisecond)
	if len(out0.got) != n {
		t.Fatal("flood continued after Stop")
	}
}

func TestChainComposes(t *testing.T) {
	mirror := &Mirror{Match: openflow.MatchAll().WithDlDst(packet.HostMAC(2)), ToPort: 2}
	drop := &Drop{Match: openflow.MatchAll().WithNwProto(packet.ProtoICMP)}
	sched, in, out0, out1 := rig(t, Chain{mirror, drop})

	in.ports.Send(0, victim()) // UDP: mirrored, not dropped
	icmp := packet.NewICMPEcho(
		packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1)},
		packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2)},
		packet.ICMPEchoRequest, 1, 1, nil,
	)
	in.ports.Send(0, icmp) // ICMP: dropped by the second link
	sched.Run()

	if len(out0.got) != 1 {
		t.Fatalf("honest port got %d, want 1 (the UDP)", len(out0.got))
	}
	if len(out1.got) != 1 {
		t.Fatalf("mirror port got %d, want 1", len(out1.got))
	}
	if drop.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", drop.Dropped)
	}
}

func TestActivitySumsChainCounters(t *testing.T) {
	mirror := &Mirror{Mirrored: 3}
	drop := &Drop{Dropped: 2}
	inner := Chain{&Replay{Replayed: 4}, &Flood{Injected: 5}}
	if got := Activity(Chain{mirror, drop, inner}); got != 14 {
		t.Fatalf("Activity = %d, want 14", got)
	}
	if got := Activity(&Reroute{}); got != 0 {
		t.Fatalf("Activity of idle behavior = %d, want 0", got)
	}
	if got := Activity(&Modify{Modified: 7}); got != 7 {
		t.Fatalf("Activity = %d, want 7", got)
	}
}

func TestChainShortCircuitsOnDrop(t *testing.T) {
	drop := &Drop{Match: openflow.MatchAll()}
	mirror := &Mirror{Match: openflow.MatchAll(), ToPort: 2}
	sched, in, out0, out1 := rig(t, Chain{drop, mirror})
	in.ports.Send(0, victim())
	sched.Run()
	if len(out0.got)+len(out1.got) != 0 {
		t.Fatal("packet survived a drop earlier in the chain")
	}
	if mirror.Mirrored != 0 {
		t.Fatal("mirror ran after the packet was dropped")
	}
}

// Regression for a bug the scenario fuzzer surfaced: a transport-port
// rewrite matched against ICMP traffic changes nothing (ICMP has no
// ports), so the packet must pass through unaltered and must NOT count
// as a modification — phantom activity broke the harness detection
// oracle's accounting.
func TestModifyVacuousRewriteNotCounted(t *testing.T) {
	b := &Modify{
		Match:   openflow.MatchAll(),
		Rewrite: []openflow.Action{openflow.SetTpDst(9999)},
	}
	sched, in, out0, _ := rig(t, b)
	ping := packet.NewICMPEcho(
		packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1)},
		packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2)},
		packet.ICMPEchoRequest, 7, 1, []byte("abcd"),
	)
	want := ping.Marshal()
	in.ports.Send(0, ping)
	sched.Run()
	if b.Modified != 0 {
		t.Fatalf("Modified = %d for a rewrite that changed nothing, want 0", b.Modified)
	}
	if len(out0.got) != 1 {
		t.Fatalf("got %d packets, want 1", len(out0.got))
	}
	if got := out0.got[0].Marshal(); !bytesEqual(got, want) {
		t.Fatal("vacuously rewritten packet differs from original")
	}
	// A rewrite that does bite still counts.
	in.ports.Send(0, victim())
	sched.Run()
	if b.Modified != 1 {
		t.Fatalf("Modified = %d after a real rewrite, want 1", b.Modified)
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
