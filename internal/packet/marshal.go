package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Marshalling errors a caller may want to match.
var (
	ErrTruncated   = errors.New("packet: truncated frame")
	ErrBadChecksum = errors.New("packet: checksum mismatch")
	ErrBadHeader   = errors.New("packet: malformed header")
)

// Marshal serialises the packet to its wire form. Length fields and
// checksums (IPv4 header, TCP, UDP, ICMP) are computed here, so callers can
// freely mutate header fields and re-marshal.
func (p *Packet) Marshal() []byte {
	return p.MarshalInto(make([]byte, 0, p.WireLen()))
}

// MarshalInto appends the packet's wire form to buf and returns the
// extended slice. Hot paths pass a recycled scratch buffer (typically
// buf[:0] of the previous call's result) to avoid a per-packet allocation;
// Marshal is MarshalInto with a fresh, exactly-sized buffer.
func (p *Packet) MarshalInto(buf []byte) []byte {
	// Ethernet.
	buf = append(buf, p.Eth.Dst[:]...)
	buf = append(buf, p.Eth.Src[:]...)
	if p.Eth.VLAN != nil {
		buf = binary.BigEndian.AppendUint16(buf, EtherTypeVLAN)
		tci := uint16(p.Eth.VLAN.PCP&0x7)<<13 | p.Eth.VLAN.VID&0x0fff
		buf = binary.BigEndian.AppendUint16(buf, tci)
	}
	buf = binary.BigEndian.AppendUint16(buf, p.Eth.EtherType)

	if p.IP == nil {
		return append(buf, p.Payload...)
	}

	// IPv4 (IHL = 5, no options).
	l4len := len(p.Payload)
	switch {
	case p.TCP != nil:
		l4len += 20
	case p.UDP != nil:
		l4len += 8
	case p.ICMP != nil:
		l4len += 8
	}
	total := 20 + l4len
	ipStart := len(buf)
	buf = append(buf, 0x45, p.IP.TOS)
	buf = binary.BigEndian.AppendUint16(buf, uint16(total))
	buf = binary.BigEndian.AppendUint16(buf, p.IP.ID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(p.IP.Flags&0x7)<<13|p.IP.FragOff&0x1fff)
	buf = append(buf, p.IP.TTL, p.IP.Protocol, 0, 0) // checksum placeholder
	buf = append(buf, p.IP.Src[:]...)
	buf = append(buf, p.IP.Dst[:]...)
	ipSum := checksum(buf[ipStart:], 0)
	binary.BigEndian.PutUint16(buf[ipStart+10:], ipSum)

	switch {
	case p.TCP != nil:
		t := p.TCP
		l4 := len(buf)
		buf = binary.BigEndian.AppendUint16(buf, t.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, t.DstPort)
		buf = binary.BigEndian.AppendUint32(buf, t.Seq)
		buf = binary.BigEndian.AppendUint32(buf, t.Ack)
		buf = append(buf, 5<<4, t.Flags)
		buf = binary.BigEndian.AppendUint16(buf, t.Window)
		buf = append(buf, 0, 0) // checksum placeholder
		buf = binary.BigEndian.AppendUint16(buf, t.Urgent)
		buf = append(buf, p.Payload...)
		sum := pseudoChecksum(p.IP.Src, p.IP.Dst, ProtoTCP, buf[l4:])
		binary.BigEndian.PutUint16(buf[l4+16:], sum)
	case p.UDP != nil:
		u := p.UDP
		l4 := len(buf)
		buf = binary.BigEndian.AppendUint16(buf, u.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, u.DstPort)
		buf = binary.BigEndian.AppendUint16(buf, uint16(8+len(p.Payload)))
		buf = append(buf, 0, 0) // checksum placeholder
		buf = append(buf, p.Payload...)
		sum := pseudoChecksum(p.IP.Src, p.IP.Dst, ProtoUDP, buf[l4:])
		if sum == 0 {
			sum = 0xffff // RFC 768: transmitted zero means "no checksum"
		}
		binary.BigEndian.PutUint16(buf[l4+6:], sum)
	case p.ICMP != nil:
		ic := p.ICMP
		l4 := len(buf)
		buf = append(buf, ic.Type, ic.Code, 0, 0) // checksum placeholder
		buf = binary.BigEndian.AppendUint16(buf, ic.ID)
		buf = binary.BigEndian.AppendUint16(buf, ic.Seq)
		buf = append(buf, p.Payload...)
		sum := checksum(buf[l4:], 0)
		binary.BigEndian.PutUint16(buf[l4+2:], sum)
	default:
		buf = append(buf, p.Payload...)
	}
	return buf
}

// Unmarshal parses a wire-form frame produced by Marshal (or hand-crafted
// by an adversary). Checksums are verified; a frame corrupted in flight
// fails with ErrBadChecksum, which is how honest hosts discard packets an
// adversarial router has tampered with below the compare's protection.
func Unmarshal(b []byte) (*Packet, error) {
	p := &Packet{}
	if err := UnmarshalInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalInto is Unmarshal into p: it overwrites every field Unmarshal
// would set, reusing p's header storage and payload capacity, and leaves
// p's pool and holds alone. The payload is copied out of b. On an error p
// holds a partial parse.
func UnmarshalInto(p *Packet, b []byte) error {
	p.Eth = Ethernet{}
	p.IP, p.TCP, p.UDP, p.ICMP = nil, nil, nil, nil
	p.Payload = p.Payload[:0]
	p.Meta = Meta{}
	if len(b) < 14 {
		return fmt.Errorf("%w: ethernet header (%d bytes)", ErrTruncated, len(b))
	}
	h := p.store()
	copy(p.Eth.Dst[:], b[0:6])
	copy(p.Eth.Src[:], b[6:12])
	et := binary.BigEndian.Uint16(b[12:14])
	rest := b[14:]
	if et == EtherTypeVLAN {
		if len(rest) < 4 {
			return fmt.Errorf("%w: vlan tag", ErrTruncated)
		}
		tci := binary.BigEndian.Uint16(rest[0:2])
		h.vlan = VLANTag{PCP: uint8(tci >> 13), VID: tci & 0x0fff}
		p.Eth.VLAN = &h.vlan
		et = binary.BigEndian.Uint16(rest[2:4])
		rest = rest[4:]
	}
	p.Eth.EtherType = et

	if et != EtherTypeIPv4 {
		p.Payload = append(p.Payload, rest...)
		return nil
	}
	if len(rest) < 20 {
		return fmt.Errorf("%w: ipv4 header", ErrTruncated)
	}
	if rest[0]>>4 != 4 {
		return fmt.Errorf("%w: ip version %d", ErrBadHeader, rest[0]>>4)
	}
	ihl := int(rest[0]&0x0f) * 4
	if ihl != 20 {
		return fmt.Errorf("%w: ip options unsupported (ihl=%d)", ErrBadHeader, ihl)
	}
	total := int(binary.BigEndian.Uint16(rest[2:4]))
	if total < 20 || total > len(rest) {
		return fmt.Errorf("%w: ip total length %d of %d", ErrTruncated, total, len(rest))
	}
	if checksum(rest[:20], 0) != 0 {
		return fmt.Errorf("%w: ipv4 header", ErrBadChecksum)
	}
	fragWord := binary.BigEndian.Uint16(rest[6:8])
	ip := &h.ip
	*ip = IPv4{
		TOS:      rest[1],
		ID:       binary.BigEndian.Uint16(rest[4:6]),
		Flags:    uint8(fragWord >> 13),
		FragOff:  fragWord & 0x1fff,
		TTL:      rest[8],
		Protocol: rest[9],
	}
	copy(ip.Src[:], rest[12:16])
	copy(ip.Dst[:], rest[16:20])
	p.IP = ip
	l4 := rest[20:total]

	switch ip.Protocol {
	case ProtoTCP:
		if len(l4) < 20 {
			return fmt.Errorf("%w: tcp header", ErrTruncated)
		}
		if off := int(l4[12]>>4) * 4; off != 20 {
			return fmt.Errorf("%w: tcp options unsupported (offset=%d)", ErrBadHeader, off)
		}
		if pseudoChecksum(ip.Src, ip.Dst, ProtoTCP, l4) != 0 {
			return fmt.Errorf("%w: tcp", ErrBadChecksum)
		}
		h.tcp = TCP{
			SrcPort: binary.BigEndian.Uint16(l4[0:2]),
			DstPort: binary.BigEndian.Uint16(l4[2:4]),
			Seq:     binary.BigEndian.Uint32(l4[4:8]),
			Ack:     binary.BigEndian.Uint32(l4[8:12]),
			Flags:   l4[13],
			Window:  binary.BigEndian.Uint16(l4[14:16]),
			Urgent:  binary.BigEndian.Uint16(l4[18:20]),
		}
		p.TCP = &h.tcp
		p.Payload = append(p.Payload, l4[20:]...)
	case ProtoUDP:
		if len(l4) < 8 {
			return fmt.Errorf("%w: udp header", ErrTruncated)
		}
		ulen := int(binary.BigEndian.Uint16(l4[4:6]))
		if ulen < 8 || ulen > len(l4) {
			return fmt.Errorf("%w: udp length %d of %d", ErrTruncated, ulen, len(l4))
		}
		if binary.BigEndian.Uint16(l4[6:8]) != 0 && pseudoChecksum(ip.Src, ip.Dst, ProtoUDP, l4[:ulen]) != 0 {
			return fmt.Errorf("%w: udp", ErrBadChecksum)
		}
		h.udp = UDP{
			SrcPort: binary.BigEndian.Uint16(l4[0:2]),
			DstPort: binary.BigEndian.Uint16(l4[2:4]),
		}
		p.UDP = &h.udp
		p.Payload = append(p.Payload, l4[8:ulen]...)
	case ProtoICMP:
		if len(l4) < 8 {
			return fmt.Errorf("%w: icmp header", ErrTruncated)
		}
		if checksum(l4, 0) != 0 {
			return fmt.Errorf("%w: icmp", ErrBadChecksum)
		}
		h.icmp = ICMP{
			Type: l4[0],
			Code: l4[1],
			ID:   binary.BigEndian.Uint16(l4[4:6]),
			Seq:  binary.BigEndian.Uint16(l4[6:8]),
		}
		p.ICMP = &h.icmp
		p.Payload = append(p.Payload, l4[8:]...)
	default:
		p.Payload = append(p.Payload, l4...)
	}
	return nil
}

// checksum computes the RFC 1071 Internet checksum of b folded into an
// initial partial sum. Verifying a buffer that embeds a correct checksum
// yields zero.
//
// The one's-complement sum is associative across word sizes and byte-order
// independent up to a swap of the result (RFC 1071 §2(B)), so the loop takes
// 32 bytes per step as four little-endian loads into four accumulators and
// swaps the folded sum once. An accumulator adds two 32-bit halves per step
// and a frame is at most ~64 KiB, so none can overflow.
func checksum(b []byte, initial uint32) uint16 {
	var s0, s1, s2, s3 uint64
	for ; len(b) >= 32; b = b[32:] {
		v0 := binary.LittleEndian.Uint64(b[0:8])
		v1 := binary.LittleEndian.Uint64(b[8:16])
		v2 := binary.LittleEndian.Uint64(b[16:24])
		v3 := binary.LittleEndian.Uint64(b[24:32])
		s0 += v0>>32 + v0&0xffffffff
		s1 += v1>>32 + v1&0xffffffff
		s2 += v2>>32 + v2&0xffffffff
		s3 += v3>>32 + v3&0xffffffff
	}
	sum := s0 + s1 + s2 + s3
	for ; len(b) >= 8; b = b[8:] {
		v := binary.LittleEndian.Uint64(b[:8])
		sum += v>>32 + v&0xffffffff
	}
	if len(b) > 0 { // the last 1–7 bytes, zero-padded to a word
		var tail [8]byte
		copy(tail[:], b)
		v := binary.LittleEndian.Uint64(tail[:])
		sum += v>>32 + v&0xffffffff
	}
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	// initial is a sum of big-endian words; join it after the swap.
	sum = uint64(bits.ReverseBytes16(uint16(sum))) + uint64(initial)
	for sum > 0xffff {
		sum = sum>>16 + sum&0xffff
	}
	return ^uint16(sum)
}

// pseudoChecksum computes the TCP/UDP checksum over the IPv4
// pseudo-header plus the transport segment.
func pseudoChecksum(src, dst IPAddr, proto uint8, segment []byte) uint16 {
	var sum uint32
	sum += uint32(binary.BigEndian.Uint16(src[0:2]))
	sum += uint32(binary.BigEndian.Uint16(src[2:4]))
	sum += uint32(binary.BigEndian.Uint16(dst[0:2]))
	sum += uint32(binary.BigEndian.Uint16(dst[2:4]))
	sum += uint32(proto)
	sum += uint32(len(segment))
	return checksum(segment, sum)
}
