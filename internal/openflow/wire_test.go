package openflow

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"netco/internal/packet"
)

func roundTrip(t *testing.T, m Message, xid uint32) Message {
	t.Helper()
	wire := Encode(m, xid)
	got, gotXid, err := Decode(wire)
	if err != nil {
		t.Fatalf("Decode(%T): %v", m, err)
	}
	if gotXid != xid {
		t.Fatalf("xid = %d, want %d", gotXid, xid)
	}
	return got
}

func TestEncodeDecodeSimpleMessages(t *testing.T) {
	msgs := []Message{
		Error{ErrType: 1, Code: 2, Data: []byte("bad")},
	}
	for i, m := range msgs {
		got := roundTrip(t, m, uint32(i))
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %T: got %+v, want %+v", m, got, m)
		}
	}
}

func TestEncodeDecodePacketIn(t *testing.T) {
	data := udpPkt().Marshal()
	m := PacketIn{
		BufferID: NoBuffer,
		TotalLen: uint16(len(data)),
		InPort:   3,
		Reason:   PacketInNoMatch,
		Data:     data,
	}
	got := roundTrip(t, m, 7)
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v\nwant %+v", got, m)
	}
	// The embedded frame survives intact.
	if _, err := packet.Unmarshal(got.(PacketIn).Data); err != nil {
		t.Fatalf("embedded frame corrupted: %v", err)
	}
}

func TestEncodeDecodePacketOut(t *testing.T) {
	m := PacketOut{
		BufferID: NoBuffer,
		InPort:   PortNone,
		Actions:  []Action{SetDlSrc(packet.HostMAC(5)), Output(2)},
		Data:     udpPkt().Marshal(),
	}
	got := roundTrip(t, m, 1)
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v\nwant %+v", got, m)
	}
}

func TestEncodeDecodeFlowMod(t *testing.T) {
	m := FlowMod{
		Match:       MatchAll().WithDlDst(packet.HostMAC(2)).WithNwDst(packet.HostIP(2), 24),
		Cookie:      99,
		Command:     FlowAdd,
		IdleTimeout: 30,
		HardTimeout: 300,
		Priority:    1000,
		BufferID:    NoBuffer,
		OutPort:     PortNone,
		Flags:       FlagSendFlowRem,
		Actions: []Action{
			SetVLANVID(10), SetVLANPCP(5), StripVLAN(),
			SetDlSrc(packet.HostMAC(1)), SetDlDst(packet.HostMAC(2)),
			SetNwSrc(packet.HostIP(1)), SetNwDst(packet.HostIP(2)),
			SetNwTOS(0x48), SetTpSrc(80), SetTpDst(443),
			OutputController(128), Output(4),
		},
	}
	got := roundTrip(t, m, 0xdeadbeef)
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v\nwant %+v", got, m)
	}
}

func TestEncodeDecodeStats(t *testing.T) {
	req := StatsRequest{
		StatsType: StatsFlow,
		Flow:      &FlowStatsRequest{Match: MatchAll(), TableID: 0xff, OutPort: PortNone},
	}
	if got := roundTrip(t, req, 11); !reflect.DeepEqual(got, req) {
		t.Fatalf("flow stats request: got %+v\nwant %+v", got, req)
	}

	preq := StatsRequest{StatsType: StatsPort, Port: &PortStatsRequest{PortNo: PortNone}}
	if got := roundTrip(t, preq, 12); !reflect.DeepEqual(got, preq) {
		t.Fatalf("port stats request: got %+v\nwant %+v", got, preq)
	}

	rep := StatsReply{
		StatsType: StatsFlow,
		Flow: []FlowStats{
			{
				Match:       MatchAll().WithDlDst(packet.HostMAC(2)),
				DurationSec: 5,
				Priority:    100,
				Cookie:      1,
				PacketCount: 42,
				ByteCount:   63000,
				Actions:     []Action{Output(1)},
			},
			{Match: MatchAll(), Priority: 1, Actions: []Action{Output(2), Output(3)}},
		},
	}
	if got := roundTrip(t, rep, 13); !reflect.DeepEqual(got, rep) {
		t.Fatalf("flow stats reply: got %+v\nwant %+v", got, rep)
	}

	prep := StatsReply{
		StatsType: StatsPort,
		Port: []PortStats{
			{PortNo: 1, RxPackets: 10, TxPackets: 20, RxBytes: 1000, TxBytes: 2000, RxDropped: 1, TxDropped: 2},
			{PortNo: 2},
		},
	}
	if got := roundTrip(t, prep, 14); !reflect.DeepEqual(got, prep) {
		t.Fatalf("port stats reply: got %+v\nwant %+v", got, prep)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrShortMessage) {
		t.Errorf("short buffer: err = %v", err)
	}
	wire := Encode(Error{}, 0)
	wire[0] = 0x04 // OpenFlow 1.3
	if _, _, err := Decode(wire); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: err = %v", err)
	}
	wire = Encode(FlowMod{Match: MatchAll(), Command: FlowAdd}, 0)
	wire[3] = 200 // declared length beyond buffer
	if _, _, err := Decode(wire); !errors.Is(err, ErrShortMessage) {
		t.Errorf("overlong declared length: err = %v", err)
	}
}

// TestDecodeRefusesUncarriedTypes: the codec carries only the messages a
// run sends, so a well-formed header of any other OpenFlow 1.0 type is
// refused with an error, never decoded and never a panic.
func TestDecodeRefusesUncarriedTypes(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  uint8 // ofp_type
		body int   // body bytes after the header
	}{
		{"Hello", 0, 0},
		{"EchoRequest", 2, 4},
		{"BarrierRequest", 18, 0},
		{"PortStatus", 12, 56}, // reason, pad, ofp_phy_port
	} {
		wire := make([]byte, headerLen+c.body)
		wire[0], wire[1] = Version, c.typ
		wire[2], wire[3] = byte(len(wire)>>8), byte(len(wire))
		m, _, err := Decode(wire)
		if !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s (type %d, %d bytes): Decode = %v, %v; want ErrBadMessage", c.name, c.typ, len(wire), m, err)
		}
	}
}

func TestDecodeTruncatedBodies(t *testing.T) {
	full := Encode(FlowMod{Match: MatchAll(), Command: FlowAdd, Actions: []Action{Output(1)}}, 0)
	for cut := 9; cut < len(full); cut++ {
		b := append([]byte(nil), full[:cut]...)
		// Fix up the declared length so the header is self-consistent.
		b[2] = byte(cut >> 8)
		b[3] = byte(cut)
		if _, _, err := Decode(b); err == nil && cut < len(full)-8 {
			t.Errorf("truncated flow-mod at %d decoded successfully", cut)
		}
	}
}

// Property: match encoding round-trips for arbitrary field values.
func TestMatchWireRoundTripProperty(t *testing.T) {
	f := func(wc uint32, inPort uint16, src, dst packet.MAC, vlan uint16,
		pcp, tos, proto uint8, nwSrc, nwDst packet.IPAddr, tpSrc, tpDst uint16) bool {
		m := Match{
			Wildcards: wc & WildcardAll,
			InPort:    inPort,
			DlSrc:     src,
			DlDst:     dst,
			DlVLAN:    vlan,
			DlVLANPCP: pcp,
			DlType:    packet.EtherTypeIPv4,
			NwTOS:     tos,
			NwProto:   proto,
			NwSrc:     nwSrc,
			NwDst:     nwDst,
			TpSrc:     tpSrc,
			TpDst:     tpDst,
		}
		got, err := decodeMatch(encodeMatch(m))
		return err == nil && got == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any FlowMod with a random action list survives the codec.
func TestFlowModWireRoundTripProperty(t *testing.T) {
	f := func(kinds []uint8, prio uint16, cookie uint64) bool {
		var actions []Action
		for _, k := range kinds {
			switch k % 8 {
			case 0:
				actions = append(actions, Output(uint16(k)))
			case 1:
				actions = append(actions, SetVLANVID(uint16(k)))
			case 2:
				actions = append(actions, StripVLAN())
			case 3:
				actions = append(actions, SetDlSrc(packet.HostMAC(uint32(k))))
			case 4:
				actions = append(actions, SetNwDst(packet.HostIP(uint32(k))))
			case 5:
				actions = append(actions, SetTpDst(uint16(k)*7))
			case 6:
				actions = append(actions, SetNwTOS(k))
			default:
				actions = append(actions, OutputController(64))
			}
		}
		m := FlowMod{
			Match:    MatchAll().WithInPort(prio % 16),
			Cookie:   cookie,
			Command:  FlowAdd,
			Priority: prio,
			BufferID: NoBuffer,
			OutPort:  PortNone,
			Actions:  actions,
		}
		got, _, err := Decode(Encode(m, 1))
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeFlowMod(b *testing.B) {
	m := FlowMod{
		Match:    MatchAll().WithDlDst(packet.HostMAC(2)),
		Command:  FlowAdd,
		Priority: 100,
		Actions:  []Action{SetDlSrc(packet.HostMAC(1)), Output(2)},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m, uint32(i))
	}
}

func BenchmarkDecodePacketIn(b *testing.B) {
	wire := Encode(PacketIn{BufferID: NoBuffer, InPort: 1, Data: udpPkt().Marshal()}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}
