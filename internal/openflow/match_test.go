package openflow

import (
	"strings"
	"testing"

	"netco/internal/packet"
)

func udpPkt() *packet.Packet {
	src := packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 1000}
	dst := packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 2000}
	return packet.NewUDP(src, dst, []byte("x"))
}

func TestMatchAllMatchesEverything(t *testing.T) {
	m := MatchAll()
	if !m.Matches(7, udpPkt()) {
		t.Fatal("MatchAll did not match")
	}
	arp := &packet.Packet{Eth: packet.Ethernet{EtherType: packet.EtherTypeARP}}
	if !m.Matches(0, arp) {
		t.Fatal("MatchAll did not match non-IP frame")
	}
}

func TestMatchFields(t *testing.T) {
	pkt := udpPkt()
	tests := []struct {
		name string
		m    Match
		want bool
	}{
		{"in_port hit", MatchAll().WithInPort(3), true},
		{"in_port miss", MatchAll().WithInPort(4), false},
		{"dl_dst hit", MatchAll().WithDlDst(packet.HostMAC(2)), true},
		{"dl_dst miss", MatchAll().WithDlDst(packet.HostMAC(9)), false},
		{"dl_src hit", MatchAll().WithDlSrc(packet.HostMAC(1)), true},
		{"dl_src miss", MatchAll().WithDlSrc(packet.HostMAC(9)), false},
		{"dl_type hit", MatchAll().WithDlType(packet.EtherTypeIPv4), true},
		{"dl_type miss", MatchAll().WithDlType(packet.EtherTypeARP), false},
		{"nw_proto hit", MatchAll().WithNwProto(packet.ProtoUDP), true},
		{"nw_proto miss", MatchAll().WithNwProto(packet.ProtoTCP), false},
		{"nw_src /32 hit", MatchAll().WithNwSrc(packet.HostIP(1), 32), true},
		{"nw_src /32 miss", MatchAll().WithNwSrc(packet.HostIP(3), 32), false},
		{"nw_src /24 hit", MatchAll().WithNwSrc(packet.IPAddr{10, 0, 0, 99}, 24), true},
		{"nw_src /8 hit", MatchAll().WithNwSrc(packet.IPAddr{10, 9, 9, 9}, 8), true},
		{"nw_src /8 miss", MatchAll().WithNwSrc(packet.IPAddr{11, 0, 0, 1}, 8), false},
		{"nw_dst hit", MatchAll().WithNwDst(packet.HostIP(2), 32), true},
		{"nw_dst miss", MatchAll().WithNwDst(packet.HostIP(7), 32), false},
		{"tp_src hit", MatchAll().WithTpSrc(1000), true},
		{"tp_src miss", MatchAll().WithTpSrc(1001), false},
		{"tp_dst hit", MatchAll().WithTpDst(2000), true},
		{"tp_dst miss", MatchAll().WithTpDst(2001), false},
		{"untagged vlan hit", MatchAll().WithDlVLAN(VLANNone), true},
		{"vlan miss on untagged", MatchAll().WithDlVLAN(5), false},
		{"compound hit", MatchAll().WithDlDst(packet.HostMAC(2)).WithNwProto(packet.ProtoUDP).WithTpDst(2000), true},
		{"compound miss", MatchAll().WithDlDst(packet.HostMAC(2)).WithNwProto(packet.ProtoUDP).WithTpDst(1), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.m.Matches(3, pkt); got != tt.want {
				t.Errorf("Matches = %v, want %v (match %s)", got, tt.want, tt.m)
			}
		})
	}
}

func TestMatchVLANTagged(t *testing.T) {
	pkt := udpPkt()
	pkt.Eth.VLAN = &packet.VLANTag{PCP: 2, VID: 100}
	if !MatchAll().WithDlVLAN(100).Matches(0, pkt) {
		t.Error("tagged frame did not match dl_vlan=100")
	}
	if MatchAll().WithDlVLAN(101).Matches(0, pkt) {
		t.Error("tagged frame matched wrong VID")
	}
	if MatchAll().WithDlVLAN(VLANNone).Matches(0, pkt) {
		t.Error("tagged frame matched VLANNone")
	}
	if !MatchAll().WithDlVLANPCP(2).Matches(0, pkt) {
		t.Error("tagged frame did not match pcp=2")
	}
	if MatchAll().WithDlVLANPCP(3).Matches(0, pkt) {
		t.Error("tagged frame matched wrong pcp")
	}
}

func TestMatchL3FieldsOnNonIP(t *testing.T) {
	arp := &packet.Packet{Eth: packet.Ethernet{EtherType: packet.EtherTypeARP}}
	if MatchAll().WithNwProto(6).Matches(0, arp) {
		t.Error("nw_proto matched non-IP frame")
	}
	if MatchAll().WithNwSrc(packet.HostIP(1), 8).Matches(0, arp) {
		t.Error("nw_src matched non-IP frame")
	}
	if MatchAll().WithTpDst(80).Matches(0, arp) {
		t.Error("tp_dst matched non-IP frame")
	}
}

func TestMatchICMPTypeCode(t *testing.T) {
	src := packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1)}
	dst := packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2)}
	pkt := packet.NewICMPEcho(src, dst, packet.ICMPEcho, 1, 1, nil)
	// OpenFlow 1.0 maps ICMP type/code onto tp_src/tp_dst.
	if !MatchAll().WithNwProto(packet.ProtoICMP).WithTpSrc(uint16(packet.ICMPEcho)).Matches(0, pkt) {
		t.Error("ICMP type match failed")
	}
	if MatchAll().WithTpSrc(uint16(packet.ICMPEchoReply)).Matches(0, pkt) {
		t.Error("ICMP type mismatch matched")
	}
}

func TestSubsumes(t *testing.T) {
	anyM := MatchAll()
	dst := MatchAll().WithDlDst(packet.HostMAC(2))
	dstPort := dst.WithInPort(1)
	tests := []struct {
		name string
		a, b Match
		want bool
	}{
		{"any subsumes specific", anyM, dstPort, true},
		{"specific does not subsume any", dstPort, anyM, false},
		{"equal subsumes", dst, dst, true},
		{"less specific subsumes more", dst, dstPort, true},
		{"more specific does not subsume less", dstPort, dst, false},
		{"different values", MatchAll().WithDlDst(packet.HostMAC(3)), dst, false},
		{"wider prefix subsumes narrower",
			MatchAll().WithNwDst(packet.IPAddr{10, 0, 0, 0}, 8),
			MatchAll().WithNwDst(packet.HostIP(5), 32), true},
		{"narrower prefix does not subsume wider",
			MatchAll().WithNwDst(packet.HostIP(5), 32),
			MatchAll().WithNwDst(packet.IPAddr{10, 0, 0, 0}, 8), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Subsumes(tt.b); got != tt.want {
				t.Errorf("Subsumes = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMatchString(t *testing.T) {
	if got := MatchAll().String(); got != "any" {
		t.Errorf("MatchAll().String() = %q, want \"any\"", got)
	}
	s := MatchAll().WithDlDst(packet.HostMAC(2)).WithInPort(1).String()
	if !strings.Contains(s, "in_port=1") || !strings.Contains(s, "dl_dst=") {
		t.Errorf("String() = %q", s)
	}
}

func TestApplyHeaderActions(t *testing.T) {
	pkt := udpPkt()

	ApplyHeader(SetVLANVID(42), pkt)
	if pkt.Eth.VLAN == nil || pkt.Eth.VLAN.VID != 42 {
		t.Fatal("SetVLANVID failed")
	}
	ApplyHeader(SetVLANPCP(5), pkt)
	if pkt.Eth.VLAN.PCP != 5 {
		t.Fatal("SetVLANPCP failed")
	}
	ApplyHeader(StripVLAN(), pkt)
	if pkt.Eth.VLAN != nil {
		t.Fatal("StripVLAN failed")
	}
	ApplyHeader(SetDlSrc(packet.HostMAC(9)), pkt)
	if pkt.Eth.Src != packet.HostMAC(9) {
		t.Fatal("SetDlSrc failed")
	}
	ApplyHeader(SetDlDst(packet.HostMAC(8)), pkt)
	if pkt.Eth.Dst != packet.HostMAC(8) {
		t.Fatal("SetDlDst failed")
	}
	ApplyHeader(SetNwSrc(packet.HostIP(7)), pkt)
	if pkt.IP.Src != packet.HostIP(7) {
		t.Fatal("SetNwSrc failed")
	}
	ApplyHeader(SetNwDst(packet.HostIP(6)), pkt)
	if pkt.IP.Dst != packet.HostIP(6) {
		t.Fatal("SetNwDst failed")
	}
	ApplyHeader(SetNwTOS(0xfc), pkt)
	if pkt.IP.TOS != 0xfc {
		t.Fatal("SetNwTOS failed")
	}
	ApplyHeader(SetTpSrc(111), pkt)
	if pkt.UDP.SrcPort != 111 {
		t.Fatal("SetTpSrc failed")
	}
	ApplyHeader(SetTpDst(222), pkt)
	if pkt.UDP.DstPort != 222 {
		t.Fatal("SetTpDst failed")
	}
	// Output is a data-plane concern; header application ignores it.
	before := pkt.Clone()
	ApplyHeader(Output(3), pkt)
	if pkt.String() != before.String() {
		t.Fatal("Output mutated the packet")
	}
}

func TestActionString(t *testing.T) {
	cases := map[string]Action{
		"output:3":          Output(3),
		"output:CONTROLLER": OutputController(128),
		"output:FLOOD":      Output(PortFlood),
		"set_vlan_vid:9":    SetVLANVID(9),
		"strip_vlan":        StripVLAN(),
	}
	for want, a := range cases {
		if got := a.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
