package packet

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func testEndpoints() (Endpoint, Endpoint) {
	src := Endpoint{MAC: HostMAC(1), IP: HostIP(1), Port: 5001}
	dst := Endpoint{MAC: HostMAC(2), IP: HostIP(2), Port: 5002}
	return src, dst
}

func TestMACRoundTrip(t *testing.T) {
	f := func(m MAC) bool {
		parsed, err := net.ParseMAC(m.String())
		return err == nil && MAC(parsed) == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIPRoundTrip(t *testing.T) {
	f := func(ip IPAddr) bool {
		if parsed := net.ParseIP(ip.String()).To4(); parsed == nil || IPAddr(parsed) != ip {
			return false
		}
		return IPFromUint32(ip.Uint32()) == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMACClassification(t *testing.T) {
	if !Broadcast.IsBroadcast() || !Broadcast.IsMulticast() {
		t.Error("broadcast misclassified")
	}
	if HostMAC(1).IsBroadcast() || HostMAC(1).IsMulticast() {
		t.Error("unicast misclassified")
	}
	if !(MAC{0x01, 0, 0x5e, 0, 0, 1}).IsMulticast() {
		t.Error("multicast misclassified")
	}
}

func TestUDPMarshalRoundTrip(t *testing.T) {
	src, dst := testEndpoints()
	p := NewUDP(src, dst, []byte("hello netco"))
	wire := p.Marshal()
	if len(wire) != p.WireLen() {
		t.Fatalf("wire length %d != WireLen %d", len(wire), p.WireLen())
	}
	q, err := Unmarshal(wire)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	p.Meta = Meta{}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n p=%+v\n q=%+v", p, q)
	}
}

func TestTCPMarshalRoundTrip(t *testing.T) {
	src, dst := testEndpoints()
	p := NewTCP(src, dst, 1000, 2000, TCPAck|TCPPsh, 65535, []byte("segment data"))
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n p=%+v\n q=%+v", p, q)
	}
}

func TestICMPMarshalRoundTrip(t *testing.T) {
	src, dst := testEndpoints()
	p := NewICMPEcho(src, dst, ICMPEcho, 7, 42, bytes.Repeat([]byte{0xab}, 56))
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n p=%+v\n q=%+v", p, q)
	}
}

func TestVLANMarshalRoundTrip(t *testing.T) {
	src, dst := testEndpoints()
	p := NewUDP(src, dst, []byte("tagged"))
	p.Eth.VLAN = &VLANTag{PCP: 3, VID: 100}
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if q.Eth.VLAN == nil || q.Eth.VLAN.VID != 100 || q.Eth.VLAN.PCP != 3 {
		t.Fatalf("VLAN tag lost: %+v", q.Eth.VLAN)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip mismatch:\n p=%+v\n q=%+v", p, q)
	}
}

func TestOddLengthPayloadChecksum(t *testing.T) {
	src, dst := testEndpoints()
	for _, n := range []int{0, 1, 3, 7, 1469} {
		p := NewUDP(src, dst, bytes.Repeat([]byte{0x5a}, n))
		if _, err := Unmarshal(p.Marshal()); err != nil {
			t.Errorf("payload len %d: %v", n, err)
		}
	}
}

// Property: for arbitrary header values and payloads, Unmarshal(Marshal(p))
// reproduces p exactly.
func TestMarshalRoundTripProperty(t *testing.T) {
	f := func(srcM, dstM MAC, srcIP, dstIP IPAddr, sport, dport uint16,
		seq, ack uint32, flagSel uint8, win uint16, payload []byte, kind uint8, vid uint16) bool {
		src := Endpoint{MAC: srcM, IP: srcIP, Port: sport}
		dst := Endpoint{MAC: dstM, IP: dstIP, Port: dport}
		var p *Packet
		switch kind % 3 {
		case 0:
			p = NewUDP(src, dst, payload)
		case 1:
			p = NewTCP(src, dst, seq, ack, flagSel&0x3f, win, payload)
		default:
			p = NewICMPEcho(src, dst, ICMPEcho, uint16(seq), uint16(ack), payload)
		}
		if vid%2 == 0 {
			p.Eth.VLAN = &VLANTag{PCP: uint8(vid>>13) & 7, VID: vid & 0x0fff}
		}
		q, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		// Normalise nil-vs-empty payload ambiguity.
		if len(p.Payload) == 0 {
			p.Payload = nil
		}
		return reflect.DeepEqual(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	src, dst := testEndpoints()
	wire := NewTCP(src, dst, 1, 2, TCPAck, 100, []byte("payload")).Marshal()
	for cut := 1; cut < len(wire); cut++ {
		if _, err := Unmarshal(wire[:cut]); err == nil {
			// Cuts inside the payload legitimately truncate IP total
			// length checks; any successful parse must have consistent
			// lengths, so only flag parses of frames cut inside headers.
			if cut < 54 {
				t.Errorf("Unmarshal accepted frame truncated at %d bytes", cut)
			}
		}
	}
}

func TestUnmarshalCorruption(t *testing.T) {
	src, dst := testEndpoints()
	wire := NewUDP(src, dst, bytes.Repeat([]byte{1}, 64)).Marshal()
	for _, offset := range []int{15, 20, 30, 36, 40, 50} {
		bad := append([]byte(nil), wire...)
		bad[offset] ^= 0xff
		if _, err := Unmarshal(bad); err == nil {
			t.Errorf("corruption at offset %d went undetected", offset)
		}
	}
}

func TestUnmarshalBadChecksumMatchable(t *testing.T) {
	src, dst := testEndpoints()
	wire := NewUDP(src, dst, []byte{1, 2, 3}).Marshal()
	wire[len(wire)-1] ^= 0xff
	_, err := Unmarshal(wire)
	if !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestClone(t *testing.T) {
	src, dst := testEndpoints()
	p := NewTCP(src, dst, 1, 2, TCPSyn, 10, []byte("abc"))
	p.Eth.VLAN = &VLANTag{VID: 5}
	q := p.Clone()
	if !reflect.DeepEqual(p, q) {
		t.Fatal("clone differs from original")
	}
	// Mutating the clone must not affect the original.
	q.Payload[0] = 'X'
	q.TCP.Seq = 99
	q.IP.TTL = 1
	q.Eth.VLAN.VID = 9
	if p.Payload[0] != 'a' || p.TCP.Seq != 1 || p.IP.TTL != 64 || p.Eth.VLAN.VID != 5 {
		t.Fatal("clone shares state with original")
	}
}

func TestCloneBitExact(t *testing.T) {
	f := func(payload []byte, seq uint32) bool {
		src, dst := testEndpoints()
		p := NewTCP(src, dst, seq, 0, TCPAck, 1000, payload)
		return bytes.Equal(p.Marshal(), p.Clone().Marshal())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDigestStability(t *testing.T) {
	src, dst := testEndpoints()
	p := NewUDP(src, dst, []byte("x"))
	w1, w2 := p.Marshal(), p.Clone().Marshal()
	if DigestBytes(w1) != DigestBytes(w2) {
		t.Fatal("digests of identical packets differ")
	}
	if FastKey(w1) != FastKey(w2) {
		t.Fatal("fast keys of identical packets differ")
	}
	q := p.Clone()
	q.Payload = []byte("y")
	if DigestBytes(w1) == DigestBytes(q.Marshal()) {
		t.Fatal("digest blind to payload change")
	}
}

func TestHeaderKeyIgnoresPayload(t *testing.T) {
	src, dst := testEndpoints()
	a := NewTCP(src, dst, 10, 20, TCPAck, 500, []byte("aaaa"))
	b := a.Clone()
	b.Payload = []byte("bbbb")
	if HeaderKey(a) != HeaderKey(b) {
		t.Fatal("HeaderKey changed with payload")
	}
	c := a.Clone()
	c.TCP.Seq = 11
	if HeaderKey(a) == HeaderKey(c) {
		t.Fatal("HeaderKey blind to seq change")
	}
	d := a.Clone()
	d.Eth.VLAN = &VLANTag{VID: 7}
	if HeaderKey(a) == HeaderKey(d) {
		t.Fatal("HeaderKey blind to VLAN tag — would miss isolation attacks")
	}
}

func TestEchoReply(t *testing.T) {
	src, dst := testEndpoints()
	req := NewICMPEcho(src, dst, ICMPEcho, 3, 9, []byte("ping"))
	rep := EchoReply(req)
	if rep.ICMP.Type != ICMPEchoReply {
		t.Errorf("type = %d, want echo reply", rep.ICMP.Type)
	}
	if rep.IP.Src != dst.IP || rep.IP.Dst != src.IP {
		t.Error("IP addresses not swapped")
	}
	if rep.Eth.Src != dst.MAC || rep.Eth.Dst != src.MAC {
		t.Error("MACs not swapped")
	}
	if rep.ICMP.ID != 3 || rep.ICMP.Seq != 9 {
		t.Error("ID/Seq not preserved")
	}
	if !bytes.Equal(rep.Payload, req.Payload) {
		t.Error("payload not preserved")
	}
}

func TestPacketString(t *testing.T) {
	src, dst := testEndpoints()
	s := NewUDP(src, dst, []byte("x")).String()
	for _, want := range []string{"udp", "5001>5002", "10.0.0.1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestWireLenMatchesMarshal(t *testing.T) {
	f := func(payload []byte, kind uint8, tagged bool) bool {
		src, dst := testEndpoints()
		var p *Packet
		switch kind % 3 {
		case 0:
			p = NewUDP(src, dst, payload)
		case 1:
			p = NewTCP(src, dst, 0, 0, 0, 0, payload)
		default:
			p = NewICMPEcho(src, dst, ICMPEcho, 0, 0, payload)
		}
		if tagged {
			p.Eth.VLAN = &VLANTag{VID: 1}
		}
		return len(p.Marshal()) == p.WireLen()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalUDP1470(b *testing.B) {
	src, dst := testEndpoints()
	p := NewUDP(src, dst, make([]byte, 1470))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Marshal()
	}
}

func BenchmarkUnmarshalUDP1470(b *testing.B) {
	src, dst := testEndpoints()
	wire := NewUDP(src, dst, make([]byte, 1470)).Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}
