package openflow

import (
	"reflect"
	"testing"
	"testing/quick"

	"netco/internal/sim"
)

// validWire is a set of valid messages whose bodies reach the decoder's
// deepest parsers: match, action list, flow stats, port stats.
func validWire() [][]byte {
	return [][]byte{
		Encode(FlowMod{Match: MatchAll(), Command: FlowAdd, Actions: []Action{Output(1), SetVLANVID(5)}}, 1),
		Encode(PacketIn{BufferID: NoBuffer, InPort: 2, Data: []byte{1, 2, 3, 4}}, 2),
		Encode(StatsReply{StatsType: StatsFlow, Flow: []FlowStats{{Match: MatchAll(), Actions: []Action{Output(3)}}}}, 3),
		Encode(StatsReply{StatsType: StatsPort, Port: []PortStats{{PortNo: 1, TxBytes: 9}}}, 4),
		Encode(FlowMod{
			Match:   MatchAll().WithInPort(1),
			Command: FlowAdd,
			Actions: []Action{SetDlSrc([6]byte{1, 2, 3, 4, 5, 6}), Output(2)},
		}, 7),
	}
}

// truncate cuts wire to its first cut bytes and, once the header's length
// field is in the cut, rewrites it to match, so the parser digs into the
// cut body instead of stopping at the length check.
func truncate(wire []byte, cut int) []byte {
	b := append([]byte(nil), wire[:cut]...)
	if cut >= 4 {
		b[2], b[3] = byte(cut>>8), byte(cut)
	}
	return b
}

// checkDecode is the decoder's property on hostile bytes — a compromised
// switch owns one end of the control channel, so Decode is attack surface.
// It must reject what it cannot parse, never panic, and a message it
// accepts must re-encode into bytes it accepts again as the same message
// type and xid.
func checkDecode(t *testing.T, b []byte) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked on %x: %v", b, r)
		}
	}()
	m, xid, err := Decode(b)
	if err != nil {
		return
	}
	wire := Encode(m, xid)
	again, xid2, err := Decode(wire)
	if err != nil {
		t.Fatalf("accepted %T re-encodes to a rejected message: %v\nin  %x\nout %x", m, err, b, wire)
	}
	if reflect.TypeOf(again) != reflect.TypeOf(m) || xid2 != xid {
		t.Fatalf("%T xid %d re-decodes as %T xid %d\nin  %x\nout %x", m, xid, again, xid2, b, wire)
	}
}

// TestDecodeNeverPanics feeds the codec random garbage.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		checkDecode(t, b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeNeverPanicsOnMutatedValid flips one to four random bits of
// valid messages.
func TestDecodeNeverPanicsOnMutatedValid(t *testing.T) {
	rng := sim.NewRNG(11)
	for _, wire := range validWire() {
		for trial := 0; trial < 500; trial++ {
			b := append([]byte(nil), wire...)
			for n := rng.Intn(4) + 1; n > 0; n-- {
				b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
			}
			checkDecode(t, b)
		}
	}
}

// TestDecodeTruncationsNeverPanic decodes every length-consistent prefix
// of valid messages.
func TestDecodeTruncationsNeverPanic(t *testing.T) {
	for _, wire := range validWire() {
		for cut := 0; cut <= len(wire); cut++ {
			checkDecode(t, truncate(wire, cut))
		}
	}
}

// FuzzDecode runs checkDecode under the fuzzer. The seed corpus is the
// valid messages, every single-bit flip position of each (one bit per
// byte), and every length-consistent truncation of each.
func FuzzDecode(f *testing.F) {
	for _, wire := range validWire() {
		f.Add(wire)
		for i := range wire {
			b := append([]byte(nil), wire...)
			b[i] ^= 1 << (i % 8)
			f.Add(b)
		}
		for cut := 0; cut < len(wire); cut++ {
			f.Add(truncate(wire, cut))
		}
	}
	f.Fuzz(checkDecode)
}
