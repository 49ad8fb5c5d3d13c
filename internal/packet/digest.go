package packet

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
)

// Digest is a fixed-size fingerprint of a frame, used by the compare
// element to bucket candidate copies before byte-exact verification.
type Digest [sha256.Size]byte

// DigestBytes fingerprints a wire-form frame.
func DigestBytes(b []byte) Digest {
	return sha256.Sum256(b)
}

// FNV-1a constants (the 64-bit variant of hash/fnv, inlined so HeaderKey
// neither allocates a hash.Hash64 nor calls through an interface).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// xxHash64 primes and the seed-zero starting values of lanes 1 and 4.
const (
	xxPrime1 uint64 = 0x9E3779B185EBCA87
	xxPrime2 uint64 = 0xC2B2AE3D27D4EB4F
	xxPrime3 uint64 = 0x165667B19E3779F9
	xxPrime4 uint64 = 0x85EBCA77C2B2AE63
	xxPrime5 uint64 = 0x27D4EB2F165667C5
	xxLane1  uint64 = 0x60EA27EEADC0B5D6 // xxPrime1 + xxPrime2 mod 2^64
	xxLane4  uint64 = 0x61C8864E7A143579 // -xxPrime1 mod 2^64
)

func xxRound(acc, v uint64) uint64 {
	return bits.RotateLeft64(acc+v*xxPrime2, 31) * xxPrime1
}

// FastKey is a cheap 64-bit bucketing key over a frame: xxHash64 with seed
// zero, 32 bytes per step in four independent lanes. A pure function of the
// bytes (no per-process seed, explicit little-endian loads), it is equal
// across processes and platforms. The compare uses it as the map key and
// confirms candidates byte-for-byte, so a collision costs a comparison,
// never correctness. The final avalanche mixes the low bits, so `FastKey %
// rate` is usable for sampling. It is not keyed: a router can predict it.
func FastKey(b []byte) uint64 {
	n := uint64(len(b))
	h := xxPrime5 + n
	if len(b) >= 32 {
		v1, v2, v3, v4 := xxLane1, xxPrime2, uint64(0), xxLane4
		for ; len(b) >= 32; b = b[32:] {
			v1 = xxRound(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = xxRound(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = xxRound(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = xxRound(v4, binary.LittleEndian.Uint64(b[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) + bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		for _, v := range [4]uint64{v1, v2, v3, v4} {
			h = (h^xxRound(0, v))*xxPrime1 + xxPrime4
		}
		h += n
	}
	for ; len(b) >= 8; b = b[8:] {
		h = bits.RotateLeft64(h^xxRound(0, binary.LittleEndian.Uint64(b[:8])), 27)*xxPrime1 + xxPrime4
	}
	if len(b) >= 4 {
		h = bits.RotateLeft64(h^uint64(binary.LittleEndian.Uint32(b[:4]))*xxPrime1, 23)*xxPrime2 + xxPrime3
		b = b[4:]
	}
	for _, c := range b {
		h = bits.RotateLeft64(h^uint64(c)*xxPrime5, 11) * xxPrime1
	}
	h = (h ^ h>>33) * xxPrime2
	h = (h ^ h>>29) * xxPrime3
	return h ^ h>>32
}

// fnvBytes folds a byte slice into a running FNV-1a state.
func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// fnvByte folds one byte into a running FNV-1a state.
func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// fnv16 folds a big-endian uint16 into a running FNV-1a state.
func fnv16(h uint64, v uint16) uint64 {
	h = fnvByte(h, byte(v>>8))
	return fnvByte(h, byte(v))
}

// fnv32 folds a big-endian uint32 into a running FNV-1a state.
func fnv32(h uint64, v uint32) uint64 {
	h = fnvByte(h, byte(v>>24))
	h = fnvByte(h, byte(v>>16))
	h = fnvByte(h, byte(v>>8))
	return fnvByte(h, byte(v))
}

// HeaderKey fingerprints only the L2–L4 headers of a frame (everything up
// to the transport payload). It implements the paper's "compared ... just
// based on the header" mode: cheaper, but blind to payload tampering. The
// digest matches what the previous hash/fnv-based implementation produced,
// byte order and all, without allocating.
func HeaderKey(p *Packet) uint64 {
	h := fnvOffset64
	h = fnvBytes(h, p.Eth.Dst[:])
	h = fnvBytes(h, p.Eth.Src[:])
	if p.Eth.VLAN != nil {
		h = fnv16(h, p.Eth.VLAN.VID|uint16(p.Eth.VLAN.PCP)<<13)
	}
	h = fnv16(h, p.Eth.EtherType)
	if p.IP != nil {
		h = fnvBytes(h, p.IP.Src[:])
		h = fnvBytes(h, p.IP.Dst[:])
		h = fnvByte(h, p.IP.Protocol)
		h = fnvByte(h, p.IP.TOS)
		h = fnvByte(h, p.IP.TTL)
		h = fnv16(h, p.IP.ID)
	}
	switch {
	case p.TCP != nil:
		h = fnv16(h, p.TCP.SrcPort)
		h = fnv16(h, p.TCP.DstPort)
		h = fnv32(h, p.TCP.Seq)
		h = fnv32(h, p.TCP.Ack)
		h = fnvByte(h, p.TCP.Flags)
	case p.UDP != nil:
		h = fnv16(h, p.UDP.SrcPort)
		h = fnv16(h, p.UDP.DstPort)
		h = fnv16(h, uint16(len(p.Payload)))
	case p.ICMP != nil:
		h = fnvByte(h, p.ICMP.Type)
		h = fnvByte(h, p.ICMP.Code)
		h = fnv16(h, p.ICMP.ID)
		h = fnv16(h, p.ICMP.Seq)
	}
	return h
}
