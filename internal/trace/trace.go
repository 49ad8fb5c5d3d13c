// Package trace provides packet capture for the emulated network: a
// bounded ring of per-hop transmit records with filtering and text dumps.
// It is the tcpdump stand-in behind the §VI case study's screening
// ("using tcpdump to monitor packet arrivals on all interfaces adjacent
// to the benign path").
package trace

import (
	"fmt"
	"time"

	"netco/internal/packet"
	"netco/internal/switching"
)

// Snapshot is a by-value copy of a captured frame's identifying fields.
// The tracer snapshots at capture time because frames are pooled: the
// caller's *packet.Packet may be recycled — zeroed and rewritten as a
// different packet — as soon as the receiving node consumes it, which
// would retroactively corrupt any record that kept the pointer.
type Snapshot struct {
	Src, Dst  packet.MAC
	EtherType uint16

	// HasVLAN/VLANID mirror an 802.1Q tag when present.
	HasVLAN bool
	VLANID  uint16

	// HasIP gates the L3/L4 fields below.
	HasIP        bool
	SrcIP, DstIP packet.IPAddr
	Proto        uint8

	// TCP/UDP ports, and the TCP sequencing fields traces key on.
	SrcPort, DstPort uint16
	TCPSeq, TCPAck   uint32
	TCPFlags         uint8

	// ICMP echo identification.
	ICMPType, ICMPCode uint8
	ICMPID, ICMPSeq    uint16

	// WireLen is the marshalled frame length; UID the simulation-wide
	// logical packet id (identical across combiner copies of one packet).
	WireLen int
	UID     uint64
}

// Snap copies the fields a record needs out of a live frame.
func Snap(p *packet.Packet) Snapshot {
	s := Snapshot{
		Src:       p.Eth.Src,
		Dst:       p.Eth.Dst,
		EtherType: p.Eth.EtherType,
		WireLen:   p.WireLen(),
		UID:       p.Meta.UID,
	}
	if p.Eth.VLAN != nil {
		s.HasVLAN = true
		s.VLANID = p.Eth.VLAN.VID
	}
	if p.IP != nil {
		s.HasIP = true
		s.SrcIP = p.IP.Src
		s.DstIP = p.IP.Dst
		s.Proto = p.IP.Protocol
	}
	switch {
	case p.TCP != nil:
		s.SrcPort, s.DstPort = p.TCP.SrcPort, p.TCP.DstPort
		s.TCPSeq, s.TCPAck, s.TCPFlags = p.TCP.Seq, p.TCP.Ack, p.TCP.Flags
	case p.UDP != nil:
		s.SrcPort, s.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	case p.ICMP != nil:
		s.ICMPType, s.ICMPCode = p.ICMP.Type, p.ICMP.Code
		s.ICMPID, s.ICMPSeq = p.ICMP.ID, p.ICMP.Seq
	}
	return s
}

// String renders the snapshot in the same compact form as packet.Packet.
func (s Snapshot) String() string {
	var b []byte
	b = fmt.Appendf(b, "%s>%s", s.Src, s.Dst)
	if s.HasVLAN {
		b = fmt.Appendf(b, " vlan=%d", s.VLANID)
	}
	if s.HasIP {
		b = fmt.Appendf(b, " %s>%s", s.SrcIP, s.DstIP)
		switch s.Proto {
		case packet.ProtoTCP:
			b = fmt.Appendf(b, " tcp %d>%d seq=%d ack=%d flags=%#x",
				s.SrcPort, s.DstPort, s.TCPSeq, s.TCPAck, s.TCPFlags)
		case packet.ProtoUDP:
			b = fmt.Appendf(b, " udp %d>%d", s.SrcPort, s.DstPort)
		case packet.ProtoICMP:
			b = fmt.Appendf(b, " icmp type=%d id=%d seq=%d", s.ICMPType, s.ICMPID, s.ICMPSeq)
		}
	}
	b = fmt.Appendf(b, " len=%d", s.WireLen)
	return string(b)
}

// Record is one captured transmission. Pkt is a snapshot, not a pointer:
// records stay valid however the captured frame is recycled afterwards.
type Record struct {
	At   time.Duration
	Node string
	Port int
	Pkt  Snapshot
}

// String renders the record tcpdump-style.
func (r Record) String() string {
	return fmt.Sprintf("%12v %s:%d %s", r.At, r.Node, r.Port, r.Pkt)
}

// Tracer captures switch transmissions into a bounded ring buffer.
type Tracer struct {
	capacity int
	ring     []Record
	next     int
	wrapped  bool
	total    uint64
}

// New creates a tracer retaining up to capacity records (default 4096).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{capacity: capacity, ring: make([]Record, 0, capacity)}
}

// Attach captures every transmission of sw, chaining any existing
// OnTransmit hook.
func (t *Tracer) Attach(sw *switching.Switch) {
	prev := sw.OnTransmit
	name := sw.Name()
	sched := sw.Scheduler()
	sw.OnTransmit = func(outPort int, pkt *packet.Packet) {
		if prev != nil {
			prev(outPort, pkt)
		}
		t.Capture(sched.Now(), name, outPort, pkt)
	}
}

// Capture records one transmission directly (for non-switch nodes). The
// record copies everything it needs out of pkt before returning, so the
// caller remains free to recycle the frame.
func (t *Tracer) Capture(at time.Duration, node string, port int, pkt *packet.Packet) {
	t.total++
	rec := Record{At: at, Node: node, Port: port, Pkt: Snap(pkt)}
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, rec)
		return
	}
	t.ring[t.next] = rec
	t.next = (t.next + 1) % t.capacity
	t.wrapped = true
}

// Total returns how many records were captured (including ones the ring
// has since evicted).
func (t *Tracer) Total() uint64 { return t.total }

// Records returns the retained records, oldest first.
func (t *Tracer) Records() []Record {
	if !t.wrapped {
		out := make([]Record, len(t.ring))
		copy(out, t.ring)
		return out
	}
	out := make([]Record, 0, t.capacity)
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}
