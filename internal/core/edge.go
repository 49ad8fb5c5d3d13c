package core

import (
	"fmt"
	"time"

	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
)

// MaxK bounds the number of parallel routers per combiner; compare ingress
// port numbers are computed as edgeID*MaxK + routerIndex.
const MaxK = 8

// EtherTypeNetCo tags the encapsulated compare-channel frames exchanged
// between an EdgeSwitch and the CompareNode. The payload is an OpenFlow
// 1.0 PacketIn/PacketOut message — the paper's compare "is connected to
// the data plane akin of an OpenFlow controller, using packet-in and
// packet-out messages" (§IV).
const EtherTypeNetCo uint16 = 0x99fe

// EdgeMode selects what an EdgeSwitch does with copies arriving from the
// untrusted routers.
type EdgeMode int

// Edge modes.
const (
	// EdgeModeCompare forwards router copies to the compare and releases
	// only what the compare returns — the full combiner (Central3/5).
	EdgeModeCompare EdgeMode = iota + 1
	// EdgeModeDup forwards every copy directly by MAC table — the
	// reduced design without combining (Dup3/5) and, with k=1, the
	// Linespeed baseline.
	EdgeModeDup
	// EdgeModeInline labels every router copy with an attribution VLAN
	// and forwards it toward the host side, where an inline Middlebox
	// performs the majority vote — the §IX "compare as a middlebox"
	// architecture, with no out-of-band detour.
	EdgeModeInline
	// EdgeModeSample is the §IX future-work design: the primary
	// router's copy is forwarded immediately (no added latency), and a
	// content-deterministic 1-in-SampleRate subset of packets is
	// additionally sent — all copies — to an out-of-band detect-only
	// compare: "a simple logic in the data plane forwards a random
	// subset of packets to a more thorough out-of-band compare logic".
	EdgeModeSample
)

// EdgeConfig parameterises a trusted edge component.
type EdgeConfig struct {
	// Name is the node name; EdgeID distinguishes the two edges of a
	// combiner (0 and 1) and namespaces compare ingress ports.
	Name   string
	EdgeID int
	// Mode selects combiner vs duplicate-only behaviour.
	Mode EdgeMode
	// ProcDelay is the per-packet processing cost of the edge; the
	// paper argues this component is simple enough to be built trusted,
	// so it should be small.
	ProcDelay time.Duration
	// ProcQueue bounds the processing queue (zero = unbounded).
	ProcQueue int
	// SampleRate is the 1-in-N sampling divisor for EdgeModeSample
	// (default 16). Sampling is content-deterministic so all copies of
	// a packet are sampled together.
	SampleRate int
}

// tagBase is the first VLAN id of the labels that attribute a copy to
// its path: an EdgeModeInline edge tags router i's copy tagBase+i for the
// downstream Middlebox, and a VirtualEdge labels tunnel i the same way.
const tagBase uint16 = 101

// EdgeStats counts edge activity.
type EdgeStats struct {
	// Replicated counts copies fanned out to routers.
	Replicated uint64
	// ToCompare counts copies encapsulated toward the compare.
	ToCompare uint64
	// FromCompare counts released packets received back.
	FromCompare uint64
	// SpoofDrops counts packets failing the ingress-port/MAC-source
	// check ("after ensuring its ingress port number matches its MAC
	// source address", §IV).
	SpoofDrops uint64
	// TableMisses counts MAC-table lookup failures.
	TableMisses uint64
	// BlockedDrops counts packets dropped on blocked router ports.
	BlockedDrops uint64
	// Sampled counts packets selected for out-of-band verification
	// (EdgeModeSample).
	Sampled uint64
}

// EdgeSwitch is the trusted component at each side of a combiner (s1/s2
// in Fig. 3). It acts as the hub for packets entering the combiner and
// manages the traffic to and from the compare for packets leaving it. Its
// functionality is deliberately simple so it can plausibly be built as
// trusted hardware (§II).
type EdgeSwitch struct {
	cfg   EdgeConfig
	sched *sim.Scheduler
	ports netem.Ports
	proc  *netem.Proc

	hostMAC     map[int]packet.MAC // host port -> expected source MAC
	hostPorts   []int              // host ports in registration order (deterministic broadcast)
	localMAC    map[packet.MAC]bool
	routerPorts []int
	routerIdx   map[int]int // port -> router index
	comparePort int
	hasCompare  bool
	macTable    map[packet.MAC]int

	blockedUntil map[int]time.Duration // router port index -> blocked until

	// wireBuf is scratch for marshalling frames bound for the compare;
	// encapPacketInInto copies it into the encapsulation, so it is reused
	// across packets.
	wireBuf []byte
	// pool holds the PacketIn encapsulation frames this edge sends toward
	// the compare, which ends its hold on one after ingest, and the
	// releases the edge parses out of the compare's PacketOuts.
	pool packet.Pool

	stats EdgeStats
}

var _ netem.Node = (*EdgeSwitch)(nil)

// NewEdgeSwitch creates an edge component. Ports are declared afterwards
// with AddHostPort, AddRouterPort and SetComparePort, before the network
// is connected.
func NewEdgeSwitch(sched *sim.Scheduler, cfg EdgeConfig) *EdgeSwitch {
	if cfg.Mode == 0 {
		cfg.Mode = EdgeModeCompare
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 16
	}
	e := &EdgeSwitch{
		cfg:          cfg,
		sched:        sched,
		proc:         netem.NewProc(sched, cfg.ProcDelay, cfg.ProcQueue),
		hostMAC:      make(map[int]packet.MAC),
		localMAC:     make(map[packet.MAC]bool),
		routerIdx:    make(map[int]int),
		macTable:     make(map[packet.MAC]int),
		blockedUntil: make(map[int]time.Duration),
	}
	e.ports.HonourHolds()
	return e
}

// Name implements netem.Node.
func (e *EdgeSwitch) Name() string { return e.cfg.Name }

// Ports implements netem.Node.
func (e *EdgeSwitch) Ports() *netem.Ports { return &e.ports }

// Stats returns the edge counters.
func (e *EdgeSwitch) Stats() EdgeStats { return e.stats }

// AddHostPort declares port as facing a locally attached host with the
// given MAC. Packets from that host enter the combiner here; the MAC also
// populates the edge's forwarding table.
func (e *EdgeSwitch) AddHostPort(port int, mac packet.MAC) {
	if _, dup := e.hostMAC[port]; !dup {
		e.hostPorts = append(e.hostPorts, port)
	}
	e.hostMAC[port] = mac
	e.localMAC[mac] = true
	e.macTable[mac] = port
}

// AddRouterPort declares port as connected to untrusted router index idx
// (0 ≤ idx < MaxK).
func (e *EdgeSwitch) AddRouterPort(port, idx int) {
	if idx < 0 || idx >= MaxK {
		panic(fmt.Sprintf("core: router index %d out of range", idx))
	}
	e.routerPorts = append(e.routerPorts, port)
	e.routerIdx[port] = idx
}

// SetComparePort declares port as the link to the compare.
func (e *EdgeSwitch) SetComparePort(port int) {
	e.comparePort = port
	e.hasCompare = true
}

// AddRoute adds a MAC-table entry for a destination reachable out of the
// given port (used when the "host side" of the edge is further network
// rather than a directly attached host).
func (e *EdgeSwitch) AddRoute(mac packet.MAC, port int) {
	e.macTable[mac] = port
}

// BlockRouter drops traffic from router index idx for d — the response
// the compare advises during a DoS (§IV case 2).
func (e *EdgeSwitch) BlockRouter(idx int, d time.Duration) {
	until := e.sched.Now() + d
	if cur := e.blockedUntil[idx]; until > cur {
		e.blockedUntil[idx] = until
	}
}

// RouterBlocked reports whether router idx is currently blocked.
func (e *EdgeSwitch) RouterBlocked(idx int) bool {
	return e.sched.Now() < e.blockedUntil[idx]
}

// Receive implements netem.Receiver. The argument-carrying submit keeps
// the per-packet edge pipeline allocation-free. Every path through the
// edge either passes its hold on pkt to a link or ends it.
func (e *EdgeSwitch) Receive(port int, pkt *packet.Packet) {
	if !e.proc.SubmitArgs(edgeHandle, e, pkt, port) {
		// Queue overflow at the edge: drop.
		packet.Done(pkt)
	}
}

func edgeHandle(a0, a1 any, port int) {
	a0.(*EdgeSwitch).handle(port, a1.(*packet.Packet))
}

func (e *EdgeSwitch) handle(port int, pkt *packet.Packet) {
	if mac, isHost := e.hostMAC[port]; isHost {
		if pkt.Eth.Src != mac {
			e.stats.SpoofDrops++
			packet.Done(pkt)
			return
		}
		e.fanOut(pkt)
		return
	}
	if idx, isRouter := e.routerIdx[port]; isRouter {
		e.fromRouter(idx, pkt)
		return
	}
	if e.hasCompare && port == e.comparePort {
		e.fromCompare(pkt)
		return
	}
	// Unknown port: treat as host-side network (chained combiners).
	e.fanOut(pkt)
}

// fanOut is the hub half, §III's trusted stateless replicator: "the
// logic boils down to multiplying the packets" (§IV). It replicates the
// packet to every router.
func (e *EdgeSwitch) fanOut(pkt *packet.Packet) {
	packet.Share(pkt, len(e.routerPorts))
	for _, p := range e.routerPorts {
		if e.ports.Send(p, pkt) {
			e.stats.Replicated++
		}
	}
}

// fromRouter handles one copy returned by untrusted router idx.
func (e *EdgeSwitch) fromRouter(idx int, pkt *packet.Packet) {
	if e.RouterBlocked(idx) {
		e.stats.BlockedDrops++
		packet.Done(pkt)
		return
	}
	// Ingress validation: a copy claiming to originate from a host that
	// is attached to *this* edge cannot legitimately arrive from a
	// router — it would have to have been reflected or spoofed.
	if e.localMAC[pkt.Eth.Src] {
		e.stats.SpoofDrops++
		packet.Done(pkt)
		return
	}
	switch e.cfg.Mode {
	case EdgeModeDup:
		e.forwardByMAC(pkt)
	case EdgeModeInline:
		// Label the copy with its router attribution and let the inline
		// middlebox vote. Without the label a single router could fake
		// a majority.
		tagged := pkt.Clone()
		packet.Done(pkt)
		tagged.Eth.VLAN = &packet.VLANTag{VID: tagBase + uint16(idx)}
		e.forwardByMAC(tagged)
	case EdgeModeSample:
		// The copy is marshalled before the fast path hands it on.
		e.wireBuf = pkt.MarshalInto(e.wireBuf[:0])
		// Fast path: the primary candidate's copy goes straight out.
		if idx == 0 {
			e.forwardByMAC(pkt)
		} else {
			packet.Done(pkt)
		}
		// Thorough path: a deterministic sample of packets (all their
		// copies) goes to the out-of-band detect-only compare.
		if packet.FastKey(e.wireBuf)%uint64(e.cfg.SampleRate) == 0 {
			if idx == 0 {
				e.stats.Sampled++
			}
			e.stats.ToCompare++
			e.sendToCompare(idx, e.wireBuf)
		}
	default:
		e.stats.ToCompare++
		e.wireBuf = pkt.MarshalInto(e.wireBuf[:0])
		packet.Done(pkt)
		e.sendToCompare(idx, e.wireBuf)
	}
}

// sendToCompare encapsulates an already-marshalled router copy in a pooled
// frame and transmits it on the compare channel. The wire slice may be
// scratch: the encapsulation copies it.
func (e *EdgeSwitch) sendToCompare(idx int, wire []byte) {
	e.ports.Send(e.comparePort, encapPacketInInto(e.pool.Get(), e.cfg.EdgeID*MaxK+idx, wire))
}

// fromCompare handles a release returned by the compare.
func (e *EdgeSwitch) fromCompare(frame *packet.Packet) {
	// The release is parsed into a packet of the edge's own pool; the
	// encapsulation frame ends its point-to-point life here.
	pkt := e.pool.Get()
	err := decapPacketOutInto(pkt, frame)
	packet.Done(frame)
	if err != nil {
		packet.Done(pkt)
		return
	}
	e.stats.FromCompare++
	if e.cfg.Mode == EdgeModeSample {
		// Sampled packets were already forwarded on the fast path; the
		// detect-only compare's releases are audit artefacts.
		packet.Done(pkt)
		return
	}
	e.forwardByMAC(pkt)
}

func (e *EdgeSwitch) forwardByMAC(pkt *packet.Packet) {
	if pkt.Eth.Dst.IsBroadcast() {
		// Broadcasts (e.g. ARP requests crossing the combiner) leave
		// toward every protected-side attachment, in registration order —
		// ranging over the hostMAC map here would make delivery order (and
		// hence downstream event order) vary run to run.
		packet.Share(pkt, len(e.hostPorts))
		for _, port := range e.hostPorts {
			e.ports.Send(port, pkt)
		}
		return
	}
	port, ok := e.macTable[pkt.Eth.Dst]
	if !ok {
		e.stats.TableMisses++
		packet.Done(pkt)
		return
	}
	e.ports.Send(port, pkt)
}

// encapPacketInInto wraps a data-plane frame in the compare channel
// encapsulation: an Ethernet frame whose payload is an OpenFlow PacketIn
// carrying the full original frame and the combiner-wide ingress port.
// The frame arrives in wire form (possibly a scratch buffer — the bytes
// are copied exactly once, straight into the encoded message) and the
// encapsulation is built into dst (typically a pooled frame whose payload
// capacity is reused).
func encapPacketInInto(dst *packet.Packet, comparePort int, wire []byte) *packet.Packet {
	msg := openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		TotalLen: uint16(len(wire)),
		InPort:   uint16(comparePort),
		Reason:   openflow.PacketInNoMatch,
		Data:     wire,
	}
	dst.Eth = packet.Ethernet{EtherType: EtherTypeNetCo}
	dst.Payload = openflow.AppendPacketIn(dst.Payload[:0], &msg, 0)
	return dst
}

// decapPacketIn reverses encapPacketInInto, yielding the copy's wire bytes.
// Parsing is deliberately left to the caller — the compare hashes and
// byte-compares the wire form without ever needing a parse. The
// returned wire slice aliases the frame's payload (frames are immutable
// once sent, and the engine copies what it keeps).
func decapPacketIn(frame *packet.Packet) (port int, wire []byte, err error) {
	if frame.Eth.EtherType != EtherTypeNetCo {
		return 0, nil, fmt.Errorf("core: unexpected ethertype %#x on compare channel", frame.Eth.EtherType)
	}
	pin, err := openflow.DecodePacketIn(frame.Payload)
	if err != nil {
		return 0, nil, fmt.Errorf("core: compare channel: %w", err)
	}
	return int(pin.InPort), pin.Data, nil
}

// encapPacketOutInto wraps a released frame's wire bytes for the trip
// back to the edge, building into dst (typically a pooled frame).
func encapPacketOutInto(dst *packet.Packet, wire []byte) *packet.Packet {
	msg := openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   openflow.PortNone,
		Actions:  packetOutActions[:],
		Data:     wire,
	}
	dst.Eth = packet.Ethernet{EtherType: EtherTypeNetCo}
	dst.Payload = openflow.AppendPacketOut(dst.Payload[:0], &msg, 0)
	return dst
}

// packetOutActions is the constant action list of every compare release.
var packetOutActions = [1]openflow.Action{openflow.Output(openflow.PortTable)}

// decapPacketOutInto reverses encapPacketOutInto, parsing the released
// frame into dst.
func decapPacketOutInto(dst, frame *packet.Packet) error {
	if frame.Eth.EtherType != EtherTypeNetCo {
		return fmt.Errorf("core: unexpected ethertype %#x on compare channel", frame.Eth.EtherType)
	}
	data, err := openflow.DecodePacketOutData(frame.Payload)
	if err != nil {
		return fmt.Errorf("core: compare channel: %w", err)
	}
	return packet.UnmarshalInto(dst, data)
}
