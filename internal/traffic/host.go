// Package traffic provides the workload side of the reproduction: an
// emulated host stack plus the iperf and ping equivalents the paper
// measures with — a Reno-style TCP bulk flow, a constant-bit-rate UDP
// source with an RFC 3550 jitter-measuring sink, and an ICMP echo client.
package traffic

import (
	"time"

	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/sim"
)

// HostPort is the port index a host uses for its single NIC.
const HostPort = 0

// HostConfig parameterises a host's receive stack.
type HostConfig struct {
	// IngestPerPacket is the CPU time to receive one packet. Together
	// with IngestQueue it models the destination-host buffering that
	// the paper blames for Dup5's poor showing ("packets spend more
	// time buffered on ... the destination host", §V-B).
	IngestPerPacket time.Duration
	// IngestQueue bounds the receive queue in packets (zero =
	// unbounded).
	IngestQueue int
	// EchoResponder enables the ICMP echo service.
	EchoResponder bool
}

// HostStats counts host stack activity.
type HostStats struct {
	RxPackets      uint64
	RxDropped      uint64 // ingest queue overflow
	RxUnclaimed    uint64 // no handler registered
	TxPackets      uint64
	EchoesAnswered uint64
}

// Host is an emulated end host: one NIC, an ingest-capacity receive
// stack, and demultiplexing to protocol handlers.
type Host struct {
	name  string
	sched *sim.Scheduler
	ports netem.Ports
	proc  netem.Proc // inline: a host is one object

	mac packet.MAC
	ip  packet.IPAddr

	udpHandlers  map[uint16]func(*packet.Packet)
	tcpHandlers  map[uint16]func(*packet.Packet)
	icmpHandlers map[uint16]func(*packet.Packet) // echo replies, by ICMP id

	// Echo requests go to the built-in responder if echoResponder is set.
	// They share no table with the replies: a reply with ICMP id 0 is a
	// reply like any other.
	echoResponder bool

	arp *arpState

	// pool holds the datagrams and segments the host's sources build;
	// the receivers along their path end their holds.
	pool packet.Pool

	nextIPID uint16
	stats    HostStats
}

var _ netem.Node = (*Host)(nil)

// NewHost creates a host.
//
// Handler maps and ARP state are allocated on first use and the receive
// Proc is held inline: a scaled fluid-tier fabric builds hundreds of
// thousands of hosts whose traffic never reaches the packet stack, so a
// host is one object (TestNewHostAllocs).
func NewHost(sched *sim.Scheduler, name string, mac packet.MAC, ip packet.IPAddr, cfg HostConfig) *Host {
	h := &Host{
		name:          name,
		sched:         sched,
		proc:          netem.MakeProc(sched, cfg.IngestPerPacket, cfg.IngestQueue),
		mac:           mac,
		ip:            ip,
		echoResponder: cfg.EchoResponder,
	}
	// NIC-ring semantics: overload drops whole bursts, so the k combiner
	// copies of one packet are lost (or kept) together.
	h.proc.SetHysteresis(true)
	h.ports.HonourHolds()
	return h
}

// Name implements netem.Node.
func (h *Host) Name() string { return h.name }

// Ports implements netem.Node.
func (h *Host) Ports() *netem.Ports { return &h.ports }

// MAC returns the host's hardware address.
func (h *Host) MAC() packet.MAC { return h.mac }

// IP returns the host's IPv4 address.
func (h *Host) IP() packet.IPAddr { return h.ip }

// Stats returns the stack counters.
func (h *Host) Stats() HostStats { return h.stats }

// Endpoint returns this host's address at the given transport port.
func (h *Host) Endpoint(port uint16) packet.Endpoint {
	return packet.Endpoint{MAC: h.mac, IP: h.ip, Port: port}
}

// Send transmits a packet out of the NIC, stamping a fresh IP ID — the
// detail that keeps TCP retransmissions bit-distinct from their originals,
// so the compare's duplicate suppression cannot swallow them.
func (h *Host) Send(pkt *packet.Packet) bool {
	if pkt.IP != nil {
		h.nextIPID++
		pkt.IP.ID = h.nextIPID
	}
	h.stats.TxPackets++
	return h.ports.Send(HostPort, pkt)
}

// HandleUDP registers a handler for datagrams addressed to the port.
func (h *Host) HandleUDP(port uint16, fn func(*packet.Packet)) {
	if h.udpHandlers == nil {
		h.udpHandlers = make(map[uint16]func(*packet.Packet))
	}
	h.udpHandlers[port] = fn
}

// HandleTCP registers a handler for segments addressed to the port.
func (h *Host) HandleTCP(port uint16, fn func(*packet.Packet)) {
	if h.tcpHandlers == nil {
		h.tcpHandlers = make(map[uint16]func(*packet.Packet))
	}
	h.tcpHandlers[port] = fn
}

// HandleEchoReply registers a handler for echo replies with the ICMP id.
func (h *Host) HandleEchoReply(id uint16, fn func(*packet.Packet)) {
	if h.icmpHandlers == nil {
		h.icmpHandlers = make(map[uint16]func(*packet.Packet))
	}
	h.icmpHandlers[id] = fn
}

// Receive implements netem.Receiver. The host honours holds: it ends
// its hold on a packet once the handler returns, so a handler copies
// whatever it keeps.
func (h *Host) Receive(port int, pkt *packet.Packet) {
	if pkt.Eth.Dst != h.mac && !pkt.Eth.Dst.IsBroadcast() {
		packet.Done(pkt)
		return // not ours (hub floods, mirrored strays)
	}
	h.stats.RxPackets++
	if !h.proc.SubmitArgs(hostDeliver, h, pkt, 0) {
		h.stats.RxDropped++
		packet.Done(pkt)
	}
}

func hostDeliver(a0, a1 any, _ int) {
	pkt := a1.(*packet.Packet)
	a0.(*Host).deliver(pkt)
	packet.Done(pkt)
}

func (h *Host) deliver(pkt *packet.Packet) {
	if pkt.Eth.EtherType == packet.EtherTypeARP {
		h.handleARP(pkt)
		return
	}
	switch {
	case pkt.UDP != nil:
		if fn := h.udpHandlers[pkt.UDP.DstPort]; fn != nil {
			fn(pkt)
			return
		}
	case pkt.TCP != nil:
		if fn := h.tcpHandlers[pkt.TCP.DstPort]; fn != nil {
			fn(pkt)
			return
		}
	case pkt.ICMP != nil:
		switch pkt.ICMP.Type {
		case packet.ICMPEcho:
			if h.echoResponder {
				h.answerEcho(pkt)
				return
			}
		case packet.ICMPEchoReply:
			if fn := h.icmpHandlers[pkt.ICMP.ID]; fn != nil {
				fn(pkt)
				return
			}
		}
	}
	h.stats.RxUnclaimed++
}

func (h *Host) answerEcho(req *packet.Packet) {
	if req.IP.Dst != h.ip {
		return
	}
	h.stats.EchoesAnswered++
	h.Send(packet.EchoReply(req))
}
