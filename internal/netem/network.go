package netem

import (
	"fmt"
	"sort"
	"time"

	"netco/internal/packet"
	"netco/internal/sim"
)

// Node is a network element that owns a set of numbered ports. All switch,
// host, hub and compare implementations satisfy it.
type Node interface {
	Receiver
	// Ports returns the node's port table, used by Connect to bind links.
	Ports() *Ports
}

// Ports is the port table a Node embeds (as a named field) to send packets
// out of numbered ports. The zero value is ready to use.
//
// Port indices produced by topology construction are small and dense
// (0..arity), so the table is a slice indexed by port; a map catches
// negative or absurdly large indices (hand-crafted test harnesses only).
// At fat-tree scale this removes one map allocation and hash per node
// and per packet hop.
type Ports struct {
	dense  []portRef
	sparse map[int]portRef
	// holds marks a node that honours holds (see Receiver).
	holds bool
}

// HonourHolds declares that the node owning the table ends its hold on
// every pooled packet it receives (see Receiver). Call it before the
// node's links are attached.
func (ps *Ports) HonourHolds() { ps.holds = true }

type portRef struct {
	link *Link
	end  int
}

// maxDensePort bounds the dense port slice; topology builders never
// exceed it.
const maxDensePort = 4096

// Grow pre-sizes the dense table to hold ports 0..n-1, so a builder that
// knows a node's port count spares Bind its reallocations.
func (ps *Ports) Grow(n int) {
	if n > maxDensePort {
		n = maxDensePort
	}
	if n > len(ps.dense) {
		grown := make([]portRef, n)
		copy(grown, ps.dense)
		ps.dense = grown
	}
}

// Bind associates local port idx with one end of a link. Bind panics on
// double-binding, which is always a topology-construction bug.
func (ps *Ports) Bind(idx int, l *Link, end int) {
	if idx < 0 || idx >= maxDensePort {
		if ps.sparse == nil {
			ps.sparse = make(map[int]portRef)
		}
		if _, dup := ps.sparse[idx]; dup {
			panic(fmt.Sprintf("netem: port %d bound twice", idx))
		}
		ps.sparse[idx] = portRef{link: l, end: end}
		return
	}
	if idx >= len(ps.dense) {
		// At least double, so binding ports in ascending order copies the
		// table O(log n) times. Builders that know a node's port count
		// call Grow first and never get here.
		n := 2 * len(ps.dense)
		if n <= idx {
			n = idx + 1
		}
		ps.Grow(n)
	}
	if ps.dense[idx].link != nil {
		panic(fmt.Sprintf("netem: port %d bound twice", idx))
	}
	ps.dense[idx] = portRef{link: l, end: end}
}

// Send transmits pkt out of local port idx. It reports whether the packet
// was accepted by the link (false on tail drop, link down, or unbound
// port). Like Link.Send, it takes over the caller's hold on pkt.
func (ps *Ports) Send(idx int, pkt *packet.Packet) bool {
	ref := ps.ref(idx)
	if ref.link == nil {
		packet.Done(pkt)
		return false
	}
	return ref.link.Send(ref.end, pkt)
}

func (ps *Ports) ref(idx int) portRef {
	if idx >= 0 && idx < len(ps.dense) {
		return ps.dense[idx]
	}
	return ps.sparse[idx]
}

// Link returns the link bound to port idx, or nil.
func (ps *Ports) Link(idx int) *Link {
	return ps.ref(idx).link
}

// Count returns the number of bound ports.
func (ps *Ports) Count() int {
	n := len(ps.sparse)
	for i := range ps.dense {
		if ps.dense[i].link != nil {
			n++
		}
	}
	return n
}

// List returns the bound port indices in ascending order.
func (ps *Ports) List() []int {
	out := make([]int, 0, len(ps.dense)+len(ps.sparse))
	for idx := range ps.sparse {
		out = append(out, idx)
	}
	for i := range ps.dense {
		if ps.dense[i].link != nil {
			out = append(out, i)
		}
	}
	if len(ps.sparse) > 0 {
		sort.Ints(out)
	}
	return out
}

// Network owns a simulation's links and provides topology assembly
// helpers. It keeps no node registry: a node is reachable only through
// the links Connect binds to it, and its name is a label for partition
// assignment. Name uniqueness is a builder's property, checked by the
// tests (TestNodeNamesUnique), not at run time.
type Network struct {
	// Sched is the single scheduler of a serial network. It is nil in a
	// partitioned network — builders must place every node with
	// SchedulerFor, and a stray use of Sched fails fast instead of
	// silently scheduling into the wrong domain.
	Sched *sim.Scheduler

	links []*Link

	// arena is the slab the network's links are allocated from: fixed
	// chunks, so pointers into a chunk stay valid forever and topology
	// build does one allocation per linkArenaChunk links instead of one
	// per link.
	arena     []Link
	arenaUsed int

	// Partitioned-mode wiring (nil/zero in serial networks).
	scheds   []*sim.Scheduler
	assign   func(name string) int
	cross    func(src, dst int) CrossPost
	minCross time.Duration
}

// linkArenaChunk is the slab size for link allocation.
const linkArenaChunk = 4096

// allocLink returns a zero link from the arena (from a fresh chunk if the
// current one is used up).
func (n *Network) allocLink() *Link {
	if n.arenaUsed == len(n.arena) {
		n.arena = make([]Link, linkArenaChunk)
		n.arenaUsed = 0
	}
	l := &n.arena[n.arenaUsed]
	n.arenaUsed++
	return l
}

// New creates an empty network on the given scheduler.
func New(sched *sim.Scheduler) *Network {
	return &Network{Sched: sched}
}

// NewPartitioned creates a network split across the given domain
// schedulers. assign maps a node name to its domain (it must be total
// over the names the builder uses and pure — Connect calls it per
// endpoint); cross returns the boundary for src→dst handoffs, normally
// (*par.Engine).Boundary. Cross-partition links must have a positive
// Delay: it is the causality bound the epoch barrier relies on, and
// Connect panics on a zero-delay cut.
func NewPartitioned(scheds []*sim.Scheduler, assign func(name string) int, cross func(src, dst int) CrossPost) *Network {
	if len(scheds) == 0 {
		panic("netem: partitioned network needs at least one scheduler")
	}
	return &Network{
		scheds: scheds,
		assign: assign,
		cross:  cross,
	}
}

// DomainOf returns the partition a node name is assigned to (0 for a
// serial network).
func (n *Network) DomainOf(name string) int {
	if n.scheds == nil {
		return 0
	}
	d := n.assign(name)
	if d < 0 || d >= len(n.scheds) {
		panic(fmt.Sprintf("netem: node %q assigned to domain %d of %d", name, d, len(n.scheds)))
	}
	return d
}

// SchedulerFor returns the scheduler a node with the given name must be
// built on: the domain's scheduler in a partitioned network, Sched
// otherwise.
func (n *Network) SchedulerFor(name string) *sim.Scheduler {
	if n.scheds == nil {
		return n.Sched
	}
	return n.scheds[n.DomainOf(name)]
}

// MinCrossDelay returns the smallest propagation delay over all
// cross-partition links created so far — the engine's lookahead bound.
// It is zero when no link crosses a partition.
func (n *Network) MinCrossDelay() time.Duration { return n.minCross }

// Add does nothing: the network keeps no node registry. It remains only
// because bench/packetnet.go and bench/probes.go call it, and goes with
// the next edit of bench/.
func (n *Network) Add(Node) {}

// Links returns all links created through Connect, in creation order.
func (n *Network) Links() []*Link { return n.links }

// Connect creates a duplex link between a's port aPort and b's port bPort
// and binds both ends.
func (n *Network) Connect(a Node, aPort int, b Node, bPort int, cfg LinkConfig) *Link {
	// A serial network never asks a node its name.
	sched, da, db := n.Sched, 0, 0
	if n.scheds != nil {
		da, db = n.DomainOf(a.Name()), n.DomainOf(b.Name())
		sched = n.scheds[da]
	}
	l := n.allocLink()
	l.init(sched, linkIDs.Add(1), cfg)
	l.denseIdx = int32(len(n.links))
	n.links = append(n.links, l)
	// The impairment pipelines seed from denseIdx.
	l.buildImpairments(cfg.Impairments)
	if da != db {
		if cfg.Delay <= 0 {
			panic(fmt.Sprintf("netem: cross-partition link %s:%d<->%s:%d has zero delay; no lookahead bound",
				a.Name(), aPort, b.Name(), bPort))
		}
		c := l.coldPart()
		c.scheds = [2]*sim.Scheduler{n.scheds[da], n.scheds[db]}
		c.cross = [2]CrossPost{n.cross(da, db), n.cross(db, da)}
		if n.minCross == 0 || cfg.Delay < n.minCross {
			n.minCross = cfg.Delay
		}
	}
	l.Attach(0, a, aPort)
	l.Attach(1, b, bPort)
	a.Ports().Bind(aPort, l, 0)
	b.Ports().Bind(bPort, l, 1)
	return l
}
