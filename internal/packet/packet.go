package packet

import (
	"fmt"
)

// EtherType values used by the emulator.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeVLAN uint16 = 0x8100
)

// IP protocol numbers.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// ICMP message types (RFC 792 echo and echo reply; that is all ping
// needs).
const (
	ICMPEchoReply uint8 = 0
	ICMPEcho      uint8 = 8
)

// FrameOverhead is the per-frame cost on the physical medium that does not
// appear in Marshal output: preamble+SFD (8 B), FCS (4 B) and minimum
// inter-frame gap (12 B). Links charge it when computing serialisation time,
// which is why a 500 Mbit/s link carries ~474 Mbit/s of TCP goodput at
// MSS 1460 — the paper's Linespeed figure.
const FrameOverhead = 24

// Ethernet is the L2 header. VLAN is non-nil when an 802.1Q tag is present.
type Ethernet struct {
	Dst       MAC
	Src       MAC
	VLAN      *VLANTag
	EtherType uint16
}

// VLANTag is an 802.1Q tag.
type VLANTag struct {
	PCP uint8  // priority code point (3 bits)
	VID uint16 // VLAN identifier (12 bits)
}

// IPv4 is the L3 header. Options are not modelled (IHL is always 5).
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8  // 3 bits (bit 1 = don't fragment)
	FragOff  uint16 // 13 bits
	TTL      uint8
	Protocol uint8
	Src      IPAddr
	Dst      IPAddr
}

// TCP is the L4 TCP header. Options are not modelled (data offset always 5).
type TCP struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Window  uint16
	Urgent  uint16
}

// UDP is the L4 UDP header. Length and checksum are computed at marshal
// time.
type UDP struct {
	SrcPort uint16
	DstPort uint16
}

// ICMP is an ICMP echo request/reply header.
type ICMP struct {
	Type uint8
	Code uint8
	ID   uint16
	Seq  uint16
}

// Packet is a parsed frame plus simulation metadata. Exactly one of TCP,
// UDP, ICMP is non-nil when IP is non-nil and the protocol is modelled;
// payloads of unmodelled protocols live in Payload directly under IP.
type Packet struct {
	Eth     Ethernet
	IP      *IPv4
	TCP     *TCP
	UDP     *UDP
	ICMP    *ICMP
	Payload []byte

	// Meta carries simulation-only bookkeeping; it is not marshalled and
	// therefore invisible to the compare element.
	Meta Meta

	// pool, when non-nil, is the Pool this packet was obtained from and
	// is recycled into when holds, the number of holders still reading
	// it, falls to zero (see Share and Done). hdr is the header storage
	// a pooled packet keeps across recycles (nil on any other packet),
	// and next links the pool's free list. Clones inherit none of them.
	pool  *Pool
	holds int32
	hdr   *headers
	next  *Packet
}

// headers is storage for a packet's headers, one object however many
// headers the packet has.
type headers struct {
	vlan VLANTag
	ip   IPv4
	tcp  TCP
	udp  UDP
	icmp ICMP
}

// store returns storage for p's headers: a pooled packet's own, kept
// across recycles, or a fresh object for any other packet.
func (p *Packet) store() *headers {
	if p.pool == nil {
		return new(headers)
	}
	if p.hdr == nil {
		p.hdr = new(headers)
	}
	return p.hdr
}

// Meta is simulation bookkeeping attached to a packet. It never reaches the
// wire.
type Meta struct {
	// UID identifies the logical packet across clones, for tracing which
	// combiner copies stem from the same original.
	UID uint64
	// Corrupted marks a packet whose bytes a netem Corrupt impairment
	// stage flipped. Simulation bookkeeping only — it lets receivers and
	// oracles distinguish modelled line noise from adversarial
	// modification without re-deriving it from the payload.
	Corrupted bool
}

// Clone returns a deep copy. The copy shares no mutable state with the
// original, so an adversarial switch mutating one copy can never corrupt
// the copies travelling through honest routers. No pool owns the copy.
func (p *Packet) Clone() *Packet {
	q := *p
	q.pool, q.holds, q.hdr, q.next = nil, 0, nil, nil
	if p.Eth.VLAN != nil || p.IP != nil || p.TCP != nil || p.UDP != nil || p.ICMP != nil {
		h := q.store()
		if p.Eth.VLAN != nil {
			h.vlan = *p.Eth.VLAN
			q.Eth.VLAN = &h.vlan
		}
		if p.IP != nil {
			h.ip = *p.IP
			q.IP = &h.ip
		}
		if p.TCP != nil {
			h.tcp = *p.TCP
			q.TCP = &h.tcp
		}
		if p.UDP != nil {
			h.udp = *p.UDP
			q.UDP = &h.udp
		}
		if p.ICMP != nil {
			h.icmp = *p.ICMP
			q.ICMP = &h.icmp
		}
	}
	if p.Payload != nil {
		q.Payload = make([]byte, len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	return &q
}

// WireLen returns the marshalled frame length in bytes (excluding
// FrameOverhead).
func (p *Packet) WireLen() int {
	n := 14 // Ethernet
	if p.Eth.VLAN != nil {
		n += 4
	}
	if p.IP != nil {
		n += 20
		switch {
		case p.TCP != nil:
			n += 20
		case p.UDP != nil:
			n += 8
		case p.ICMP != nil:
			n += 8
		}
	}
	return n + len(p.Payload)
}

// String returns a compact human-readable summary for logs and traces.
func (p *Packet) String() string {
	var b []byte
	b = fmt.Appendf(b, "%s>%s", p.Eth.Src, p.Eth.Dst)
	if p.Eth.VLAN != nil {
		b = fmt.Appendf(b, " vlan=%d", p.Eth.VLAN.VID)
	}
	if p.IP != nil {
		b = fmt.Appendf(b, " %s>%s", p.IP.Src, p.IP.Dst)
	}
	switch {
	case p.TCP != nil:
		b = fmt.Appendf(b, " tcp %d>%d seq=%d ack=%d flags=%#x",
			p.TCP.SrcPort, p.TCP.DstPort, p.TCP.Seq, p.TCP.Ack, p.TCP.Flags)
	case p.UDP != nil:
		b = fmt.Appendf(b, " udp %d>%d", p.UDP.SrcPort, p.UDP.DstPort)
	case p.ICMP != nil:
		b = fmt.Appendf(b, " icmp type=%d id=%d seq=%d", p.ICMP.Type, p.ICMP.ID, p.ICMP.Seq)
	}
	b = fmt.Appendf(b, " len=%d", p.WireLen())
	return string(b)
}
