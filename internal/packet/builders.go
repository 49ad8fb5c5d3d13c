package packet

// Endpoint identifies one side of an emulated conversation.
type Endpoint struct {
	MAC  MAC
	IP   IPAddr
	Port uint16
}

// NewUDP builds a UDP datagram from src to dst carrying payload.
func NewUDP(src, dst Endpoint, payload []byte) *Packet {
	p := &Packet{Payload: payload}
	p.setUDP(src, dst)
	return p
}

// setIPv4 writes the Ethernet and IPv4 headers every builder shares.
func (p *Packet) setIPv4(src, dst Endpoint, proto uint8) *headers {
	h := p.store()
	h.ip = IPv4{TTL: 64, Protocol: proto, Src: src.IP, Dst: dst.IP}
	p.Eth = Ethernet{Dst: dst.MAC, Src: src.MAC, EtherType: EtherTypeIPv4}
	p.IP = &h.ip
	return h
}

func (p *Packet) setUDP(src, dst Endpoint) {
	h := p.setIPv4(src, dst, ProtoUDP)
	h.udp = UDP{SrcPort: src.Port, DstPort: dst.Port}
	p.UDP = &h.udp
}

func (p *Packet) setTCP(src, dst Endpoint, seq, ack uint32, flags uint8, window uint16) {
	h := p.setIPv4(src, dst, ProtoTCP)
	h.tcp = TCP{
		SrcPort: src.Port,
		DstPort: dst.Port,
		Seq:     seq,
		Ack:     ack,
		Flags:   flags,
		Window:  window,
	}
	p.TCP = &h.tcp
}

// NewICMPEcho builds an ICMP echo request (or reply, per typ) from src to
// dst. src.Port and dst.Port are ignored.
func NewICMPEcho(src, dst Endpoint, typ uint8, id, seq uint16, payload []byte) *Packet {
	return &Packet{
		Eth: Ethernet{Dst: dst.MAC, Src: src.MAC, EtherType: EtherTypeIPv4},
		IP: &IPv4{
			TTL:      64,
			Protocol: ProtoICMP,
			Src:      src.IP,
			Dst:      dst.IP,
		},
		ICMP:    &ICMP{Type: typ, ID: id, Seq: seq},
		Payload: payload,
	}
}

// EchoReply derives the matching echo reply for a received echo request:
// L2/L3 addresses swapped, type flipped, ID/Seq/payload preserved.
func EchoReply(req *Packet) *Packet {
	rep := req.Clone()
	rep.Eth.Src, rep.Eth.Dst = req.Eth.Dst, req.Eth.Src
	rep.IP.Src, rep.IP.Dst = req.IP.Dst, req.IP.Src
	rep.ICMP.Type = ICMPEchoReply
	rep.IP.TTL = 64
	return rep
}
