package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

// TestUnmarshalNeverPanics: the parser faces frames crafted by
// adversarial routers; it must reject garbage gracefully.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Unmarshal panicked on %x: %v", b, r)
			}
		}()
		if p, err := Unmarshal(b); err == nil {
			// Anything accepted must survive re-marshalling.
			p.Marshal()
			_ = p.String()
			_ = p.WireLen()
			p.Clone()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestUnmarshalMutatedValidNeverPanics flips bits in valid frames.
func TestUnmarshalMutatedValidNeverPanics(t *testing.T) {
	src := Endpoint{MAC: HostMAC(1), IP: HostIP(1), Port: 9}
	dst := Endpoint{MAC: HostMAC(2), IP: HostIP(2), Port: 10}
	seeds := [][]byte{
		NewUDP(src, dst, []byte("payload")).Marshal(),
		NewTCP(src, dst, 1, 2, TCPAck, 100, []byte("data")).Marshal(),
		NewICMPEcho(src, dst, ICMPEcho, 1, 2, []byte("ping")).Marshal(),
	}
	for _, seed := range seeds {
		for offset := 0; offset < len(seed); offset++ {
			for _, bit := range []byte{0x01, 0x80} {
				b := append([]byte(nil), seed...)
				b[offset] ^= bit
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("Unmarshal panicked at offset %d: %v", offset, r)
						}
					}()
					_, _ = Unmarshal(b)
				}()
			}
		}
	}
}

// FuzzUnmarshal feeds the parser what an adversarial router can put on a
// wire. Whatever the input: Unmarshal returns instead of panicking; a frame
// it accepts re-marshals to a frame it accepts again, and that one
// re-marshals to itself (same bytes, same FastKey — the compare would hold
// the two as one packet); the word-wide checksum agrees with the 16-bit
// reference on the raw bytes; and UnmarshalInto, parsing into a recycled
// pooled packet whose header storage and payload a larger earlier frame
// of every protocol left dirty, returns the same error as Unmarshal, or
// a packet that marshals to the same bytes and still holds its one hold.
// The seed corpus — one valid frame per protocol plus every truncation of
// each — runs under plain `go test`.
func FuzzUnmarshal(f *testing.F) {
	src, dst := testEndpoints()
	tagged := NewUDP(src, dst, []byte("tagged"))
	tagged.Eth.VLAN = &VLANTag{PCP: 5, VID: 101}
	big := bytes.Repeat([]byte{0xa5}, 1500)
	bigTagged := NewTCP(src, dst, 9, 9, TCPPsh, 9, big)
	bigTagged.Eth.VLAN = &VLANTag{PCP: 7, VID: 4000}
	var dirt [][]byte
	for _, p := range []*Packet{NewUDP(src, dst, big), NewICMPEcho(src, dst, ICMPEcho, 9, 9, big), bigTagged} {
		dirt = append(dirt, p.Marshal())
	}
	for _, p := range []*Packet{
		NewUDP(src, dst, []byte("payload")),
		NewTCP(src, dst, 1, 2, TCPAck, 100, []byte("data")),
		NewICMPEcho(src, dst, ICMPEcho, 1, 2, []byte("ping")),
		tagged,
	} {
		wire := p.Marshal()
		for n := 0; n <= len(wire); n++ {
			f.Add(wire[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := checksum(data, 0), refChecksum(data, 0); got != want {
			t.Fatalf("checksum %#04x, reference %#04x", got, want)
		}
		var pl Pool
		dirty := pl.Get()
		for _, b := range dirt {
			if err := UnmarshalInto(dirty, b); err != nil {
				t.Fatal(err)
			}
			Done(dirty)
			dirty = pl.Get()
		}
		p, err := Unmarshal(data)
		errInto := UnmarshalInto(dirty, data)
		if (err == nil) != (errInto == nil) || err != nil && err.Error() != errInto.Error() {
			t.Fatalf("Unmarshal error %v, UnmarshalInto error %v\nin %x", err, errInto, data)
		}
		if err != nil {
			return
		}
		wire := p.Marshal()
		if into := dirty.Marshal(); !bytes.Equal(wire, into) {
			t.Fatalf("UnmarshalInto a dirty packet differs from Unmarshal\nin   %x\nnew  %x\ninto %x", data, wire, into)
		}
		if dirty.pool != &pl || dirty.holds != 1 {
			t.Fatalf("UnmarshalInto changed the packet's ownership: pool kept %v, holds %d", dirty.pool == &pl, dirty.holds)
		}
		q, err := Unmarshal(wire)
		if err != nil {
			t.Fatalf("accepted frame re-marshals to a rejected one: %v\nin  %x\nout %x", err, data, wire)
		}
		again := q.Marshal()
		if !bytes.Equal(wire, again) || FastKey(wire) != FastKey(again) {
			t.Fatalf("re-marshalling is not idempotent\nin     %x\nfirst  %x\nsecond %x", data, wire, again)
		}
	})
}
