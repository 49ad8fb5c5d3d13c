package core

import (
	"bytes"
	"testing"
	"time"

	"netco/internal/packet"
	"netco/internal/sim"
)

func samplePkt() *packet.Packet {
	return packet.NewUDP(
		packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 5},
		packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 6},
		[]byte("compare channel payload"),
	)
}

func TestCompareChannelPacketInRoundTrip(t *testing.T) {
	pkt := samplePkt()
	frame := encapPacketInInto(&packet.Packet{}, MaxK+2, pkt.Marshal()) // edge 1, router 2

	if frame.Eth.EtherType != EtherTypeNetCo {
		t.Fatalf("ethertype = %#x, want %#x", frame.Eth.EtherType, EtherTypeNetCo)
	}
	port, inner, err := decapPacketIn(frame)
	if err != nil {
		t.Fatalf("decap: %v", err)
	}
	if port != MaxK+2 {
		t.Fatalf("port = %d, want %d", port, MaxK+2)
	}
	if !bytes.Equal(inner, pkt.Marshal()) {
		t.Fatal("inner frame corrupted by encapsulation")
	}
}

func TestCompareChannelPacketOutRoundTrip(t *testing.T) {
	pkt := samplePkt()
	frame := encapPacketOutInto(&packet.Packet{}, pkt.Marshal())
	inner := &packet.Packet{}
	if err := decapPacketOutInto(inner, frame); err != nil {
		t.Fatalf("decap: %v", err)
	}
	if !bytes.Equal(inner.Marshal(), pkt.Marshal()) {
		t.Fatal("inner frame corrupted")
	}
}

func TestCompareChannelRejectsForeignFrames(t *testing.T) {
	if _, _, err := decapPacketIn(samplePkt()); err == nil {
		t.Fatal("decapPacketIn accepted a plain data frame")
	}
	if err := decapPacketOutInto(&packet.Packet{}, samplePkt()); err == nil {
		t.Fatal("decapPacketOutInto accepted a plain data frame")
	}
	// Mismatched message types cross-decode must fail.
	if err := decapPacketOutInto(&packet.Packet{}, encapPacketInInto(&packet.Packet{}, 0, samplePkt().Marshal())); err == nil {
		t.Fatal("decapPacketOutInto accepted a PacketIn frame")
	}
	if _, _, err := decapPacketIn(encapPacketOutInto(&packet.Packet{}, samplePkt().Marshal())); err == nil {
		t.Fatal("decapPacketIn accepted a PacketOut frame")
	}
}

func TestCompareChannelEncapSizeAccounting(t *testing.T) {
	// The encapsulated frame must be larger than the original (it rides
	// a link, so its serialisation cost matters) and carry the OpenFlow
	// header overhead.
	pkt := samplePkt()
	frame := encapPacketInInto(&packet.Packet{}, 0, pkt.Marshal())
	if frame.WireLen() <= pkt.WireLen() {
		t.Fatalf("encap %d B not larger than original %d B", frame.WireLen(), pkt.WireLen())
	}
}

func TestEdgeRouterIndexValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range router index did not panic")
		}
	}()
	sched := sim.NewScheduler()
	e := NewEdgeSwitch(sched, EdgeConfig{Name: "e"})
	e.AddRouterPort(1, MaxK)
}

func TestEdgeBlockRouterExpiry(t *testing.T) {
	sched := sim.NewScheduler()
	e := NewEdgeSwitch(sched, EdgeConfig{Name: "e"})
	e.AddRouterPort(1, 0)
	e.BlockRouter(0, 10*time.Millisecond)
	if !e.RouterBlocked(0) {
		t.Fatal("router not blocked")
	}
	// A shorter re-block must not shrink the window.
	e.BlockRouter(0, time.Millisecond)
	sched.RunUntil(5 * time.Millisecond)
	if !e.RouterBlocked(0) {
		t.Fatal("block window shrank")
	}
	sched.RunUntil(11 * time.Millisecond)
	if e.RouterBlocked(0) {
		t.Fatal("block did not expire")
	}
}

func TestEngineMajorityOverride(t *testing.T) {
	// Unanimity-required configuration: release only at 3 of 3.
	e := NewEngine(Config{K: 3, Majority: 3})
	wire, pkt := frame(77)
	e.Ingest(0, 0, wire, pkt)
	if evs := ingest(e, 0, 1, wire, pkt); hasKind(evs, EventRelease) {
		t.Fatal("released at 2 of 3 despite Majority=3")
	}
	if evs := ingest(e, 0, 2, wire, pkt); !hasKind(evs, EventRelease) {
		t.Fatal("not released at unanimity")
	}
}
