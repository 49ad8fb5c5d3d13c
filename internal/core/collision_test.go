package core

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"

	"netco/internal/packet"
)

// xxHash64's lane primes (packet.FastKey).
const (
	xxPrime1 uint64 = 0x9E3779B185EBCA87
	xxPrime2 uint64 = 0xC2B2AE3D27D4EB4F
)

// inverse returns the multiplicative inverse of an odd a modulo 2^64
// (Newton's iteration; each step doubles the correct low bits).
func inverse(a uint64) uint64 {
	x := a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}

// xxLanes returns FastKey's four lane states after the first stripes
// 32-byte stripes of b.
func xxLanes(b []byte, stripes int) [4]uint64 {
	p1, p2 := xxPrime1, xxPrime2 // variables: the seed-zero lanes wrap mod 2^64
	v := [4]uint64{p1 + p2, p2, 0, -p1}
	for s := 0; s < stripes; s++ {
		for i := range v {
			w := binary.LittleEndian.Uint64(b[32*s+8*i:])
			v[i] = bits.RotateLeft64(v[i]+w*xxPrime2, 31) * xxPrime1
		}
	}
	return v
}

// forgeFastKey rewrites the 32-byte stripe at forged[32*stripe:] so that
// forged, which has honest's length and may differ from it anywhere
// before that stripe, gets honest's FastKey. A lane round
// rotl(acc + w·P2, 31)·P1 is invertible in the input word w, so each
// lane's word is solved for the state honest's lane has after the
// stripe; from there on the two frames hash the same bytes. This is the
// collision an unkeyed FastKey lets a faulty router build (FastKey's doc:
// "a router can predict it").
func forgeFastKey(t *testing.T, honest, forged []byte, stripe int) {
	t.Helper()
	if len(forged) != len(honest) || len(honest) < 32*(stripe+1) {
		t.Fatalf("forgeFastKey: frames of %d and %d bytes, stripe %d", len(honest), len(forged), stripe)
	}
	in := xxLanes(forged, stripe)
	out := xxLanes(honest, stripe+1)
	for i := range in {
		w := (bits.RotateLeft64(out[i]*inverse(xxPrime1), -31) - in[i]) * inverse(xxPrime2)
		binary.LittleEndian.PutUint64(forged[32*stripe+8*i:], w)
	}
	if packet.FastKey(forged) != packet.FastKey(honest) || bytes.Equal(forged, honest) {
		t.Fatal("forgeFastKey: no distinct colliding frame")
	}
}

// TestBitExactRejectsForgedFastKey: one faulty router of three sends,
// first, a copy redirected to another host whose payload it rewrote so
// that the copy's FastKey equals the honest frame's. The bit-exact
// compare keys both to one bucket but never holds them as one packet:
// the forged copy and one honest copy release nothing, and the second
// honest copy releases the honest bytes.
func TestBitExactRejectsForgedFastKey(t *testing.T) {
	src := packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 1000}
	dst := packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 2000}
	evil := packet.Endpoint{MAC: packet.HostMAC(9), IP: packet.HostIP(9), Port: 2000}
	payload := bytes.Repeat([]byte{0x5a}, 96)
	honest := packet.NewUDP(src, dst, payload).Marshal()
	forged := packet.NewUDP(src, evil, payload).Marshal()
	forgeFastKey(t, honest, forged, 2) // bytes 64–95: payload only

	e := NewEngine(Config{K: 3})
	var released [][]byte
	e.OnEvent = func(ev Event) {
		if ev.Kind == EventRelease {
			released = append(released, bytes.Clone(ev.Wire))
		}
	}
	e.Ingest(0, 0, forged, nil)
	e.Ingest(1, 1, honest, nil)
	if len(released) != 0 {
		t.Fatalf("a forged copy and one honest copy released %d frames (forged: %v)",
			len(released), bytes.Equal(released[0], forged))
	}
	e.Ingest(2, 2, honest, nil)
	if len(released) != 1 || !bytes.Equal(released[0], honest) {
		t.Fatalf("two honest copies released %d frames, want the honest one", len(released))
	}
}
