package traffic

import (
	"context"
	"fmt"
	"math"
	"time"

	"netco/internal/netem"
	"netco/internal/pool"
	"netco/internal/sim"
)

// The fluid tier models flows as rate processes instead of packet
// streams: each flow is a demand plus a path of directed link hops, and
// a max-min fair allocator shares every link's capacity among the flows
// crossing it. No per-packet events exist for a fluid flow — links just
// carry its allocated rate as aggregate load, read from the allocator's
// per-direction record (netem.Link.BindFluidLoad), which the packet tier
// sees as shrunken effective capacity and inflated queue delay. This is
// what makes million-flow scenarios tractable: cost scales with rate
// *changes* (epoch settles), not with packets.
//
// Determinism contract: the allocator never iterates a Go map. Flow and
// link-direction worklists are built in event order and traversed as
// slices, so identical construction sequences produce bit-identical
// allocations, loads, and delivered-byte counters regardless of host,
// worker count, or run repetition.
//
// Settles are incremental: a flow start/stop/retarget or a capacity
// change marks its flow (or direction) dirty, and the settle pass
// re-solves only the connected components of the flow/direction
// dependency graph that contain a dirty seed. Flows in untouched
// components keep their rates — safe because a component is closed
// under "shares a link direction with", so no constraint of an
// untouched flow has changed. Each component is solved from scratch by
// progressive filling; the tests' reference oracle seeds every listed
// flow and every direction dirty before a settle, so it runs the same
// per-component solver over every component and must match bit for bit.
// A settle calls no one back: what it decides shows only as flow rates,
// link loads, expander rates and delivered bits, and moving a flow into
// or out of the packet tier is the caller's Promote and Demote.
//
// A settle finds the dirty components one of three ways (see settle). It
// walks them breadth-first from the seeds; or, with no flow active, it
// sweeps the listed flows; or, when flows were only started since a
// settle that compiled every listed flow, it grows that compilation:
// components then only merge, and union-find over the new flows' hops
// finds them without a walk (see grow).

// Hop is one directed link traversal on a fluid flow's path: the link
// plus the end the flow transmits from (netem's 0/1 orientation, as
// returned by Ports.Ref).
type Hop struct {
	Link *netem.Link
	End  int
}

// Expander drives real packets for a fluid flow promoted across a
// packet-exact region: the fluid tier retargets its rate at every
// reallocation and reads back how many bytes the packet tier actually
// delivered end to end.
type Expander interface {
	// SetRate retargets the packet generator's offered load (bits/s).
	SetRate(bps float64)
	// DeliveredBytes returns cumulative bytes delivered by the packet
	// tier since the expander was created (monotone).
	DeliveredBytes() uint64
	// Start and Stop control the underlying generator.
	Start()
	Stop()
}

// FluidConfig parameterises a FluidNet.
type FluidConfig struct {
	// Epoch is the reallocation quantum: rate changes requested inside
	// an epoch (flow starts, stops, demand edits) are coalesced and
	// applied together at the next epoch boundary. Default 10 ms.
	Epoch time.Duration

	// SettleWorkers fans the per-component progressive-filling solves
	// of one settle across a worker pool. Discovery compiles each
	// component into its own ranges of dense arrays, and a solve reads
	// and writes only those, so solves share no memory; discovery and
	// publication stay serial in deterministic seed order, and the
	// per-component arithmetic is the same at every worker count — so
	// allocations are bit-identical, which the differential tests pin.
	// <= 1 solves serially on the caller.
	SettleWorkers int
}

// The flow/direction graph is indices. Directions are addressed by an
// int32 id in first-touch order. A flow object gets a permanent int32
// slot when it is first carved, and what the settle reads of a flow
// lives in slot-indexed arrays. Hops and occurrences are 8-byte index
// pairs, and each settle compiles its components into dense arrays of
// their own (compiled). Only a direction's link and occurrence list are
// pointers: the collector scans no slot, hop, occurrence or compiled
// record, and a settle walks arrays instead of chasing pointers across
// the heap.
//
// The component walk is a random walk over memory, so what it reads on
// every step is split from the rest and kept small: a 4-byte generation
// mark per flow, checked once per occurrence, and an 8-byte visit record
// per direction, checked once per hop. At 165,888 flows those two arrays
// take 2 MB and mostly hit in cache. A flow's slot record (flowSlot, one
// cache line) and its hops are read where the walk first meets the flow
// (see admit), and the slot once more where publication accrues it.
//
// The id- and slot-indexed arrays are paged: records live in fixed-size
// pages, so the arrays grow without copying. A dense slice would copy
// itself at every growth and leave the outgrown array to the collector;
// at the bench's 165,888 flows that cost more build time and peak memory
// than the settle saved.

// paged is an append-only array of records addressed by int32 index.
type paged[T any] struct {
	pages []*[1 << pageBits]T
	n     int32
}

const pageBits = 10 // 1,024 records a page

func (p *paged[T]) at(i int32) *T { return &p.pages[i>>pageBits][i&(1<<pageBits-1)] }

// add appends a zero record and returns its index.
func (p *paged[T]) add() int32 {
	if int(p.n)>>pageBits == len(p.pages) {
		p.pages = append(p.pages, new([1 << pageBits]T))
	}
	p.n++
	return p.n - 1
}

// fluidDir is the allocator's per-direction state, indexed by direction
// id: one end of a link (HopDir), or a bare capacity (NewDir, link nil).
type fluidDir struct {
	link *netem.Link
	cap  float64 // link capacity in bits/s; 0 = unconstrained

	// flows lists every path occurrence of a listed flow through this
	// direction (a flow appears once per traversal), maintained by
	// list/unlist with swap-removal. It is the edge set the settle
	// pass's component BFS walks.
	flows []dirFlow

	// load is the direction's aggregate rate, which a link reads
	// through the pointer HopDir binds (Link.BindFluidLoad).
	load float64

	// registered counts the path occurrences of every flow NewFlow has
	// handed out and retire has not taken back: what flows can grow to,
	// known before the first of them starts.
	registered int32

	dirty bool  // queued in dirtyDirs for the next settle
	end   uint8 // 0 or 1
	_     [10]byte
}

// dirVisit is a direction's settle mark, kept apart from fluidDir so the
// component walk's per-hop check reads 8 bytes, not a cache line.
type dirVisit struct {
	mark int32 // settle generation this dir was last compiled in
	pos  int32 // its position in that settle's compiled dirs
}

// dirFlow is one path occurrence of a flow through a direction: the
// flow's slot plus the index of this direction in the flow's own hop
// list (so a swap-removal can fix the moved occurrence's back-index).
type dirFlow struct {
	slot, di int32
}

// flowHop is one hop of a flow's path: the direction it crosses and the
// flow's position in that direction's occurrence list.
type flowHop struct {
	dir, pos int32
}

// flowSlot is a flow's per-slot state: one 64-byte cache line, read once
// by each settle that touches the flow.
type flowSlot struct {
	demand float64
	rate   float64 // current allocation, bits/s

	// Delivered-bit accounting: lazy accrual at the current rate while
	// fluid, expander byte deltas while promoted.
	accrued     float64
	lastAccrual time.Duration

	// The flow's hop records are hopPages[page][off : off+hops], carved
	// with room for room.
	page, off, hops, room int32

	listPos int32 // position in the allocator's flow list

	active   bool
	promoted bool // the flow object holds an expander
	listed   bool // in the allocator's flow + per-direction lists
	dirtyMk  bool // queued in dirtyFlows for the next settle
	released bool // recycled into the free list once delisted
}

// dirKey keys the fallback map for directions that cannot live in the
// index table (see FluidNet.dirTab).
type dirKey struct {
	link *netem.Link
	end  int
}

// Records per slab chunk (see carve) and per hop page: 64 KB of
// occurrences, flow objects in 14 KB, 64 KB of hops.
const (
	occSlabChunk  = 8192
	flowSlabChunk = 256
	hopPageLen    = 8192
)

// carve cuts n zeroed records, with capacity n, off *slab. A chunk too
// full for them is replaced, never grown, so every earlier carve and
// every pointer into one stays valid. A request over a quarter chunk gets
// an array of its own rather than strand that much of the current one.
func carve[T any](slab *[]T, n, chunk int) []T {
	if n > chunk/4 {
		return make([]T, n)
	}
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, chunk)
	}
	at := len(*slab)
	*slab = (*slab)[:at+n]
	return (*slab)[at : at+n : at+n]
}

// FluidNet owns the fluid flows of one simulation and runs the max-min
// fair allocator over them at epoch boundaries.
type FluidNet struct {
	sched *sim.Scheduler
	epoch time.Duration

	flows      []int32 // slots of the listed flows (order perturbed by swap-removal)
	listedHops int     // their hops, summed
	regHops    int32   // the hops of every registered flow, summed
	nextID     int

	// active counts the flows between Start and Stop; unretired counts the
	// Release'd flows retire has not yet taken back. Both zero lets a
	// settle sweep instead of walk (see sweep).
	active, unretired int

	dirs   paged[fluidDir] // by id, which is first-touch order
	visits paged[dirVisit] // by id

	// Direction lookup, both holding id+1 (0: not there). A link built
	// through a netem.Network carries a dense creation index, so its two
	// directions live at dirTab[Index()*2+End]: 0 until a flow first
	// traverses them, never changed afterwards. dirOf takes what the
	// table cannot: standalone links (Index() == -1) and links whose
	// entry another link already owns (two Networks feeding one
	// FluidNet). It stays nil until such a link shows up.
	dirTab []int32
	dirOf  map[dirKey]int32

	// Flows by slot: the caller's handle, the settle generation the flow
	// was last visited in and the rest of its state; then the hop arena
	// the slots index. Flow objects are carved from flowSlab, as callers
	// hold pointers to them; each direction's first occurrence list, sized
	// to its registered count, from occSlab.
	handles  paged[*FluidFlow]
	marks    paged[int32]
	slots    paged[flowSlot]
	hopPages [][]flowHop
	flowSlab []FluidFlow
	occSlab  []dirFlow

	// Dirty seeds for the next settle, in event order: flow slots and
	// direction ids. Each appears at most once (guarded by its dirty
	// flag).
	dirtyFlows []int32
	dirtyDirs  []int32

	// Settle scratch, reused across passes so the steady-state settle
	// path allocates nothing. comps holds this settle's components as
	// ranges of cc.
	comps   []fluidComp
	cc      compiled
	stopped []int32 // slots of one component's flows to delist
	retired []int32 // slots of the flows this settle retired, recycled at its end
	cuts    []int   // parallel fill: range r is the solved components [cuts[r], cuts[r+1])
	gen     int32

	// The last settle's compilation stays in comps and cc for the next
	// settle to grow (see grow). kept says it holds every listed flow, in
	// exact components; a direction is one of its own when its visit mark
	// is at least keptFrom (and older than the running settle). edited
	// says a flow stopped, or an active flow's demand changed, since that
	// settle. dropped says the running walk delisted a flow.
	kept, edited, dropped bool
	keptFrom              int32

	// Grow scratch: a union-find forest over the kept components and the
	// directions only new flows cross (nodes), each node's group, each new
	// direction's id, each new flow's group, and the groups themselves.
	uf, ugrp, newDirs, fgrp []int32
	groups                  []growGroup
	grows                   uint64 // settles that grew (tests read it)

	// Flow arena: Release'd flows are recycled through this free list
	// once their final settle has delisted them, so steady-state churn
	// (NewFlow/Start/.../Stop/Release) allocates no flow objects.
	freeFlows   []*FluidFlow
	recycled    uint64
	retiredBits float64

	workers    int
	dirty      bool
	armed      bool
	timer      sim.Timer
	onEpochFn  func()
	settles    uint64
	compSolves uint64
}

// compiled holds the components of one settle, compiled by discovery (or
// grown from the last settle's, see grow) into dense arrays: component
// after component, each a contiguous range of every array. A direction
// appears once, in the component that owns it; a flow's hops name its
// directions by their index within the component. A solve reads and
// writes only its component's ranges.
type compiled struct {
	flows  []int32   // per local flow: its slot
	foff   []int32   // local flow k crosses hop[foff[k]:foff[k+1]]; one more entry closes the last
	demand []float64 // per local flow
	hop    []int32   // per hop: its direction's index within the component
	dirs   []int32   // per local direction: its id
	cap    []float64 // per local direction

	// Solve state: per local direction, then per local flow.
	load     []float64
	unfrozen []int32
	sat      []bool
	rate     []float64
	frozen   []bool
}

// fluidComp is one connected component of the flow/direction graph
// discovered by a settle, as ranges of the compiled arrays: the active
// flows [f0, f1) to allocate and the directions [d0, d1) constraining
// them.
type fluidComp struct {
	f0, f1, d0, d1 int32
}

// growGroup is one component a grow settle compiles: its final ranges
// (while counting, f1 and d1 hold its new flows and directions), its new
// flows' hops, and its write cursors.
type growGroup struct {
	fluidComp
	nh         int32
	cf, cd, ch int32 // where its next flow, direction and hop go
}

// NewFluidNet creates an empty fluid tier on the scheduler.
func NewFluidNet(sched *sim.Scheduler, cfg FluidConfig) *FluidNet {
	if cfg.Epoch <= 0 {
		cfg.Epoch = 10 * time.Millisecond
	}
	fn := &FluidNet{
		sched:    sched,
		epoch:    cfg.Epoch,
		workers:  cfg.SettleWorkers,
		kept:     true, // nothing listed, nothing compiled
		keptFrom: 1,
	}
	fn.onEpochFn = fn.onEpoch // bound once; arming a timer allocates nothing
	if newNetHook != nil {
		newNetHook(fn)
	}
	return fn
}

// Epoch returns the reallocation quantum.
func (fn *FluidNet) Epoch() time.Duration { return fn.epoch }

// Settles returns how many reallocation passes have run — the fluid
// tier's event-count analogue.
func (fn *FluidNet) Settles() uint64 { return fn.settles }

// Flows returns the number of flows currently tracked (active or
// awaiting their final settle).
func (fn *FluidNet) Flows() int { return len(fn.flows) }

// Recycled returns how many NewFlow calls were served from the free
// list instead of allocating — the churn engine's recycle counter.
func (fn *FluidNet) Recycled() uint64 { return fn.recycled }

// RetiredBits returns the cumulative delivered bits folded in from
// Release'd flows, so whole-run accounting survives flow recycling.
func (fn *FluidNet) RetiredBits() float64 { return fn.retiredBits }

// ComponentsSolved returns the cumulative number of per-component
// progressive-filling solves across all settles.
func (fn *FluidNet) ComponentsSolved() uint64 { return fn.compSolves }

// Close cancels any pending epoch timer. Loads already published
// stay as they are; call after the measurement window closes.
func (fn *FluidNet) Close() {
	fn.timer.Stop()
	fn.armed = false
	fn.dirty = false
}

// NewFlow is NewFlowDirs over a path of link hops, each resolved by
// HopDir in path order.
func (fn *FluidNet) NewFlow(demand float64, path []Hop) *FluidFlow {
	ids := make([]int32, 0, 8) // on the stack: a fat-tree path has at most 6 hops
	for _, h := range path {
		ids = append(ids, fn.HopDir(h))
	}
	return fn.NewFlowDirs(demand, ids)
}

// NewFlowDirs registers a rate process with the given demand (bits/s)
// over a path of direction ids, counting each hop into its direction so
// that list can size the direction's occurrence list once. The flow is
// idle until Start. Demand is clamped to finite non-negative; an id no
// direction has panics (construction bug). Flow objects come from the
// Release free list when one is available, else from the flow slab with a
// new slot; a recycled flow keeps its slot, and its hop records when the
// new path fits them, so steady-state churn allocates nothing.
func (fn *FluidNet) NewFlowDirs(demand float64, path []int32) *FluidFlow {
	if math.IsNaN(demand) || math.IsInf(demand, 0) || demand < 0 {
		demand = 0
	}
	var f *FluidFlow
	if n := len(fn.freeFlows); n > 0 {
		f = fn.freeFlows[n-1]
		fn.freeFlows[n-1] = nil
		fn.freeFlows = fn.freeFlows[:n-1]
		fn.recycled++
	} else {
		f = &carve(&fn.flowSlab, 1, flowSlabChunk)[0]
		f.net, f.slot = fn, fn.slots.add()
		*fn.handles.at(fn.handles.add()) = f
		fn.marks.add()
	}
	f.id = fn.nextID
	fn.nextID++
	sl := fn.slots.at(f.slot)
	*sl = flowSlot{demand: demand, page: sl.page, off: sl.off, room: sl.room}
	if int(sl.room) < len(path) || len(fn.hopPages) == 0 { // a hopless first flow still needs a page to index
		sl.page, sl.off = fn.carveHops(len(path))
		sl.room = int32(len(path))
	}
	sl.hops = int32(len(path))
	fn.regHops += sl.hops
	hops := fn.hopPages[sl.page][sl.off : sl.off+sl.hops]
	for i, id := range path {
		if uint32(id) >= uint32(fn.dirs.n) {
			panic(fmt.Sprintf("traffic: fluid flow %d hop %d names direction %d of %d", f.id, i, id, fn.dirs.n))
		}
		fn.dirs.at(id).registered++
		hops[i].dir = id
	}
	return f
}

// carveHops reserves n contiguous hop records and returns where they
// start. A page too full for them keeps its tail unused; a path longer
// than a page gets a page of its own.
func (fn *FluidNet) carveHops(n int) (page, off int32) {
	last := len(fn.hopPages) - 1
	if last < 0 || cap(fn.hopPages[last])-len(fn.hopPages[last]) < n {
		fn.hopPages = append(fn.hopPages, make([]flowHop, 0, max(n, hopPageLen)))
		last++
	}
	at := len(fn.hopPages[last])
	fn.hopPages[last] = fn.hopPages[last][:at+n]
	return int32(last), int32(at)
}

// flowHops returns the hop records of the flow in slot s.
func (fn *FluidNet) flowHops(s int32) []flowHop {
	sl := fn.slots.at(s)
	return fn.hopPages[sl.page][sl.off : sl.off+sl.hops]
}

// retire folds the delivered bits of a Release'd flow that no list holds
// any more into the retired total and takes its hops back out of their
// directions' registered counts; recycle then returns it to the free
// list. A settle retires the flows it delists while their records are in
// cache, and recycles them at its end.
func (fn *FluidNet) retire(s int32) {
	fn.unretired--
	fn.retiredBits += fn.slots.at(s).accrued
	fn.regHops -= fn.slots.at(s).hops
	for _, h := range fn.flowHops(s) {
		fn.dirs.at(h.dir).registered--
	}
}

// recycle resets a retired flow's handle and returns it to the free
// list. The slot keeps its hop carve and its generation mark; NewFlow
// resets the rest of it.
func (fn *FluidNet) recycle(f *FluidFlow) {
	f.id = -1
	f.exp = nil
	f.expBase = 0
	fn.freeFlows = append(fn.freeFlows, f)
}

// lookupDir returns the direction's id+1, or 0 if no flow has ever
// traversed it. end is 0 or 1. An indexed link is in the map only when
// its table entry belongs to another link, so a free or out-of-range
// entry answers without a probe.
func (fn *FluidNet) lookupDir(l *netem.Link, end int) int32 {
	if idx := l.Index(); idx >= 0 {
		at := idx*2 + end
		if at >= len(fn.dirTab) {
			return 0
		}
		if ref := fn.dirTab[at]; ref == 0 || fn.dirs.at(ref-1).link == l {
			return ref
		}
	}
	return fn.dirOf[dirKey{link: l, end: end}]
}

// NewDir creates a direction no link carries, with capacity bps (0 =
// unconstrained); only its record holds its load.
func (fn *FluidNet) NewDir(bps float64) int32 {
	id := fn.dirs.add()
	fn.visits.add()
	*fn.dirs.at(id) = fluidDir{cap: bps}
	return id
}

// HopDir returns the id of h's direction, creating it on first touch
// with the link's capacity, bound to the link and entered in dirTab (or
// dirOf). A nil link or an End outside {0, 1} panics (construction bug).
func (fn *FluidNet) HopDir(h Hop) int32 {
	if h.Link == nil || h.End&^1 != 0 {
		panic(fmt.Sprintf("traffic: fluid hop on link %p has end %d, want a link and end 0 or 1", h.Link, h.End))
	}
	if ref := fn.lookupDir(h.Link, h.End); ref != 0 {
		return ref - 1
	}
	id := fn.NewDir(h.Link.Capacity())
	d := fn.dirs.at(id)
	d.link, d.end = h.Link, uint8(h.End)
	h.Link.BindFluidLoad(h.End, &d.load) // pages never move

	if idx := h.Link.Index(); idx >= 0 {
		at := idx*2 + h.End
		if at >= len(fn.dirTab) {
			// Extend to the entry, at least doubling, so touching links in
			// ascending order reallocates O(log n) times. A fabric creates
			// its host links last and every flow starts on one, so there
			// the first few flows size the table for good.
			n := 2 * len(fn.dirTab)
			if n <= at {
				n = at + 1
			}
			grown := make([]int32, n)
			copy(grown, fn.dirTab)
			fn.dirTab = grown
		}
		if fn.dirTab[at] == 0 {
			fn.dirTab[at] = id + 1
			return id
		}
	}
	if fn.dirOf == nil {
		fn.dirOf = make(map[dirKey]int32)
	}
	fn.dirOf[dirKey{link: h.Link, end: h.End}] = id + 1
	return id
}

// SetCapacity overrides the allocator's capacity for the (link, end)
// direction, modelling a degraded or restored link; the differential
// test scripts drive it between settles.
// It is a no-op for a direction no fluid flow has ever traversed, for a
// nil link, for an end outside {0, 1} and for a bps that is negative,
// NaN or infinite (0 means unconstrained). The new allocation takes
// effect at the next epoch boundary.
func (fn *FluidNet) SetCapacity(l *netem.Link, end int, bps float64) {
	if l == nil || end&^1 != 0 || !(bps >= 0) || math.IsInf(bps, 1) {
		return
	}
	ref := fn.lookupDir(l, end)
	if ref == 0 || fn.dirs.at(ref-1).cap == bps {
		return
	}
	fn.dirs.at(ref - 1).cap = bps
	fn.dirtyDir(ref - 1)
	fn.markDirty()
}

// dirtyFlow queues slot s as a settle seed (once per settle).
func (fn *FluidNet) dirtyFlow(s int32) {
	if sl := fn.slots.at(s); !sl.dirtyMk {
		sl.dirtyMk = true
		fn.dirtyFlows = append(fn.dirtyFlows, s)
	}
}

// dirtyDir queues direction id as a settle seed (once per settle).
func (fn *FluidNet) dirtyDir(id int32) {
	if d := fn.dirs.at(id); !d.dirty {
		d.dirty = true
		fn.dirtyDirs = append(fn.dirtyDirs, id)
	}
}

// list enters the flow in slot s into the allocator: the flow list plus
// every traversed direction's occurrence list. The first Start reserves
// the flow and dirty-seed lists for every flow registered by then. A
// full occurrence list is resized to its direction's registered count —
// with no floor, which churn's many one-flow directions would pay for —
// or doubled when flows register one at a time; only the first size is
// carved, so an outgrown array goes to the collector instead of leaving
// a hole.
func (fn *FluidNet) list(s int32) {
	if fn.flows == nil {
		n := int(fn.slots.n) - len(fn.freeFlows)
		fn.flows = make([]int32, 0, n)
		fn.dirtyFlows = make([]int32, 0, n)
	}
	sl := fn.slots.at(s)
	sl.listed = true
	sl.listPos = int32(len(fn.flows))
	fn.flows = append(fn.flows, s)
	hops := fn.flowHops(s)
	fn.listedHops += len(hops)
	for i := range hops {
		h := &hops[i]
		d := fn.dirs.at(h.dir)
		if n := len(d.flows); cap(d.flows) == 0 {
			d.flows = carve(&fn.occSlab, int(d.registered), occSlabChunk)[:0]
		} else if n == cap(d.flows) {
			d.flows = append(make([]dirFlow, 0, max(int(d.registered), 2*n)), d.flows...)
		}
		h.pos = int32(len(d.flows))
		d.flows = append(d.flows, dirFlow{slot: s, di: int32(i)})
	}
}

// unlist removes the flow in slot s from the allocator by swap-removal,
// fixing the back-indices of whatever moved into the vacated positions.
func (fn *FluidNet) unlist(s int32) {
	for _, h := range fn.flowHops(s) {
		d := fn.dirs.at(h.dir)
		last := len(d.flows) - 1
		moved := d.flows[last]
		d.flows[h.pos] = moved
		ms := fn.slots.at(moved.slot)
		fn.hopPages[ms.page][ms.off+moved.di].pos = h.pos
		d.flows = d.flows[:last]
	}
	fn.delist(s)
}

// delist removes the flow in slot s from the flow list by swap-removal;
// its occurrences are the caller's.
func (fn *FluidNet) delist(s int32) {
	sl := fn.slots.at(s)
	fn.listedHops -= int(sl.hops)
	p := sl.listPos
	last := len(fn.flows) - 1
	moved := fn.flows[last]
	fn.flows[p] = moved
	fn.slots.at(moved).listPos = p
	fn.flows = fn.flows[:last]
	sl.listed = false
}

// markDirty schedules a settle at the next epoch boundary (strictly
// after now), coalescing every change requested inside the epoch into
// one reallocation.
func (fn *FluidNet) markDirty() {
	fn.dirty = true
	if fn.armed {
		return
	}
	fn.armed = true
	now := fn.sched.Now()
	boundary := (now/fn.epoch + 1) * fn.epoch
	fn.timer = fn.sched.After(boundary-now, fn.onEpochFn)
}

func (fn *FluidNet) onEpoch() {
	fn.armed = false
	if fn.dirty {
		fn.settle()
	}
}

// settle re-solves every connected component of the flow/direction
// graph that contains a dirty seed. Components are discovered by BFS
// from each seed and solved one at a time, in seed order; flows in
// components with no seed keep their rates and are not even visited —
// the pass costs O(size of the dirty components), not O(flows).
//
// The settle is a three-phase pass so the per-component solves can fan
// across workers without giving up bit-identity:
//
//	discover (serial) — BFS each dirty seed's component, delist stopped
//	  flows, and compile the component into the settle's dense arrays;
//	  mutates shared state (generation marks, the flow list) so it stays
//	  on the caller.
//	fill (parallel) — progressive filling per component. Touches only
//	  the component's own ranges of those arrays; components partition
//	  the graph, so solves are independent and the arithmetic is
//	  identical at every worker count.
//	publish (serial, component order) — accrue each flow at its old rate,
//	  write rates back by slot, push loads into the packet tier, retarget
//	  promoted expanders. It calls no one back: the settle's observable
//	  outcome is the rates, loads and delivered bits it leaves behind.
//
// Two base cases replace discovery. With no flow active the pass is a
// sweep (see sweep), unless the walk's order can be observed: a
// Release'd flow awaits retirement (retire sums RetiredBits in walk
// order, and the component count is a reported figure) or a direction is
// dirty. When flows were only started since a settle that left every
// listed flow compiled, the pass grows that compilation by union-find
// instead, if it can in place (see grow). Every other settle walks; a
// walk keeps its compilation for the next settle to grow when it
// compiled every listed flow and delisted none. The tests' reference
// oracle seeds every listed flow and every direction before a settle:
// the dirty directions keep it off both base cases, so it walks and
// re-solves every component.
func (fn *FluidNet) settle() {
	if fn.active == 0 && fn.unretired == 0 && len(fn.dirtyDirs) == 0 {
		fn.sweep()
		return
	}
	if fn.kept && !fn.edited && len(fn.dirtyDirs) == 0 && fn.grow() {
		return
	}
	fn.dirty = false
	fn.edited, fn.dropped = false, false
	now := fn.sched.Now()
	fn.gen++
	fn.comps = fn.comps[:0]

	// Size the compiled arrays for the most this settle can discover —
	// every listed flow and hop, and every direction those hops or the
	// seeds name — so discovery's appends never move them.
	nf, nh := len(fn.flows), fn.listedHops
	nd := min(int(fn.dirs.n), nh+len(fn.dirtyDirs))
	cc := &fn.cc
	cc.flows, cc.foff, cc.demand = reserve(cc.flows, nf), reserve(cc.foff, nf+1), reserve(cc.demand, nf)
	cc.hop, cc.dirs, cc.cap = reserve(cc.hop, nh), reserve(cc.dirs, nd), reserve(cc.cap, nd)

	for _, s := range fn.dirtyFlows {
		fn.slots.at(s).dirtyMk = false
		if *fn.marks.at(s) != fn.gen {
			fn.discoverComponent(s, -1)
		}
	}
	for _, id := range fn.dirtyDirs {
		fn.dirs.at(id).dirty = false
		if fn.visits.at(id).mark != fn.gen {
			fn.discoverComponent(-1, id)
		}
	}
	fn.dirtyFlows = fn.dirtyFlows[:0]
	fn.dirtyDirs = fn.dirtyDirs[:0]
	cc.foff = append(cc.foff, int32(len(cc.hop)))
	nd, nf = len(cc.dirs), len(cc.flows)
	cc.load, cc.unfrozen, cc.sat = reserve(cc.load, nd)[:nd], reserve(cc.unfrozen, nd)[:nd], reserve(cc.sat, nd)[:nd]
	cc.rate, cc.frozen = reserve(cc.rate, nf)[:nf], reserve(cc.frozen, nf)[:nf]
	fn.kept, fn.keptFrom = !fn.dropped && nf == len(fn.flows), fn.gen
	fn.solve(fn.comps, now)
}

// solve fills, publishes and counts this settle's compiled components,
// then recycles the flows the settle retired.
func (fn *FluidNet) solve(comps []fluidComp, now time.Duration) {
	// The parallel path is taken only when there is real fan-out to win;
	// either way the per-component arithmetic is the same code. Workers
	// are handed contiguous ranges of components, not components: a churn
	// settle has thousands of them, a handful of flows each, and one
	// dispatch apiece costs more than the solve. Ranges are cut at equal
	// shares of the components' flows plus directions.
	cc := &fn.cc
	ncomps := len(comps)
	if k := min(fn.workers, ncomps); k > 1 {
		weight := func(i int) int {
			c := &comps[i]
			return int(c.f1 - c.f0 + c.d1 - c.d0)
		}
		total := 0
		for i := 0; i < ncomps; i++ {
			total += weight(i)
		}
		fn.cuts = append(fn.cuts[:0], 0)
		for i, acc := 0, 0; i < ncomps; i++ {
			acc += weight(i)
			for len(fn.cuts) < k && acc*k >= len(fn.cuts)*total {
				fn.cuts = append(fn.cuts, i+1)
			}
		}
		fn.cuts = append(fn.cuts, ncomps)
		_, errs := pool.Map(context.Background(), k, k,
			func(r int) (struct{}, error) {
				for i := fn.cuts[r]; i < fn.cuts[r+1]; i++ {
					cc.fillComponent(&comps[i])
				}
				return struct{}{}, nil
			})
		for _, err := range errs {
			if err != nil {
				panic(err) // PanicError from a solve: surface, don't swallow
			}
		}
	} else {
		for i := range comps {
			cc.fillComponent(&comps[i])
		}
	}
	fn.compSolves += uint64(ncomps)

	for i := range comps {
		fn.publishComponent(&comps[i], now)
	}
	fn.settles++

	// Recycle Release'd flows whose final settle just delisted them.
	// Deferred to the very end so no seed list or component can observe
	// a reset flow.
	for _, s := range fn.retired {
		fn.recycle(*fn.handles.at(s))
	}
	fn.retired = fn.retired[:0]
	if settleHook != nil {
		settleHook(fn)
	}
}

// sweep is the settle with no active flow. Max-min then gives every flow
// and direction zero whatever the components are, and every listed flow
// was stopped since the last settle, so it is a dirty seed: the walk would
// visit exactly the listed flows and the directions they cross, only to
// empty those lists and write zero loads. The sweep does the same in one
// pass over the listed flows: it delists each (Stop has accrued them, as
// publication would). Each non-empty direction has exactly one occurrence
// at the head of its list, so the hop whose pos is 0 empties the list and
// zeroes the direction's fluid load, and the other hops read no direction at
// all.
// Rates are already zero (Stop cleared them) and no component is solved.
func (fn *FluidNet) sweep() {
	fn.dirty = false
	for _, s := range fn.flows {
		sl := fn.slots.at(s)
		sl.listed, sl.dirtyMk = false, false
		for _, h := range fn.flowHops(s) {
			if h.pos == 0 {
				d := fn.dirs.at(h.dir)
				d.flows = d.flows[:0]
				d.load = 0
			}
		}
	}
	fn.flows = fn.flows[:0]
	fn.listedHops = 0
	fn.dirtyFlows = fn.dirtyFlows[:0]
	fn.comps = fn.comps[:0]
	fn.kept, fn.edited, fn.keptFrom = true, false, fn.gen+1 // nothing compiled, no direction owned
	fn.settles++
	if settleHook != nil {
		settleHook(fn)
	}
}

// grow is the settle after flows were only started: since the last
// settle no flow stopped, no active flow's demand and no capacity
// changed, and that settle left every listed flow compiled, in exact
// components (kept). Components then only merge, so union-find over the
// new flows' hops finds this settle's components without a walk. Its
// nodes are the kept components and the directions none of them owns
// (new directions); each group of nodes a new flow reaches is one
// component, compiled from its kept components plus its new directions
// and flows, then solved and published like a walked one. A kept
// component no new flow reaches is carried over unsolved: re-solving it
// would change no rate, but re-accruing its flows would split each
// rate·time integral in two.
//
// Order. Grown components are solved and published in the order of
// their first new flow in start order. Within one, its kept components'
// flows and directions come first, in their compiled order, then its new
// directions in the order the new flows' hops first name them, then its
// new flows in start order. A walk publishes the same components in the
// same order, since its seeds are those flows in start order, but lists
// each one's flows and directions in visit order. Publication calls no
// one back and writes only per-flow and per-direction state, so nothing
// observable tells the two apart: the differential tests compare a grow
// with a walk bit for bit.
//
// Layout. A grow compiles in place: the kept components stay where they
// are and the grown ones follow them. That needs the kept components the
// wave reaches to be the tail of the compilation, all joining the first
// grown component, which then extends them — as when a start wave joins
// one fabric-wide component, or reaches no kept component at all. For
// any other wave grow returns false having changed nothing the walk
// reads, and the settle walks.
func (fn *FluidNet) grow() bool {
	cc := &fn.cc
	kept := fn.comps
	nk := int32(len(kept))
	var oldF, oldD, oldH int32
	if nk > 0 {
		last := kept[nk-1]
		oldF, oldD, oldH = last.f1, last.d1, cc.foff[last.f1]
	}
	fn.gen++ // new directions' visit records hold their node under this mark

	// Union the nodes each new flow crosses; fgrp holds the flow's first
	// node, -1 if it has no hops.
	fn.uf, fn.newDirs, fn.fgrp = fn.uf[:0], fn.newDirs[:0], fn.fgrp[:0]
	for i := int32(0); i < nk; i++ {
		fn.uf = append(fn.uf, i)
	}
	for _, s := range fn.dirtyFlows {
		a := int32(-1)
		for _, h := range fn.flowHops(s) {
			n := fn.find(fn.growNode(h.dir, nk))
			switch {
			case a < 0:
				a = n
			case n < a:
				fn.uf[a], a = n, n
			case n > a:
				fn.uf[n] = a
			}
		}
		fn.fgrp = append(fn.fgrp, a)
	}

	// Number the groups in order of their first new flow, and count their
	// new flows, hops and directions.
	nodes := int32(len(fn.uf))
	fn.ugrp = reserve(fn.ugrp, int(nodes))[:nodes]
	for n := range fn.ugrp {
		fn.ugrp[n] = -1
	}
	fn.groups = fn.groups[:0]
	for i, a := range fn.fgrp {
		g := int32(len(fn.groups))
		if a >= 0 {
			if r := fn.find(a); fn.ugrp[r] >= 0 {
				g = fn.ugrp[r]
			} else {
				fn.ugrp[r] = g
			}
		}
		if g == int32(len(fn.groups)) {
			fn.groups = append(fn.groups, growGroup{})
		}
		fn.fgrp[i] = g
		gr := &fn.groups[g]
		gr.f1++
		gr.nh += fn.slots.at(fn.dirtyFlows[i]).hops
	}
	for n := int32(0); n < nodes; n++ {
		fn.ugrp[n] = fn.ugrp[fn.find(n)]
	}
	for j := range fn.newDirs {
		fn.groups[fn.ugrp[nk+int32(j)]].d1++
	}

	// p is the first reached kept component: kept[p:] must all join the
	// first group, and no kept component before p be reached.
	p := nk
	for p > 0 && fn.ugrp[p-1] == 0 {
		p--
	}
	for i := int32(0); i < p; i++ {
		if fn.ugrp[i] >= 0 {
			return false
		}
	}
	fn.dirty = false
	fn.grows++
	now := fn.sched.Now()
	for _, s := range fn.dirtyFlows {
		fn.slots.at(s).dirtyMk = false
	}

	// The groups follow the old end, each cursor at its group's start. The
	// first group reaches back over kept[p:], whose hops name directions
	// by index within their component: rebase them to kept[p]'s.
	f, d, h := oldF, oldD, oldH
	for g := range fn.groups {
		gr := &fn.groups[g]
		gr.f0, gr.d0 = f, d
		gr.cf, gr.cd, gr.ch = f, d, h
		f, d, h = f+gr.f1, d+gr.d1, h+gr.nh
		gr.f1, gr.d1 = f, d
	}
	if p < nk {
		gr := &fn.groups[0]
		gr.f0, gr.d0 = kept[p].f0, kept[p].d0
		for _, c := range kept[p+1:] {
			off := c.d0 - gr.d0
			for j := cc.foff[c.f0]; j < cc.foff[c.f1]; j++ {
				cc.hop[j] += off
			}
		}
	}
	// An array that must grow is sized for every registered flow, hop and
	// direction, so a later start wave extends it in place.
	rf, rd := fn.slots.n-int32(len(fn.freeFlows)), fn.dirs.n
	cc.flows, cc.demand = extend(cc.flows[:oldF], f, rf), extend(cc.demand[:oldF], f, rf)
	cc.foff = extend(cc.foff[:oldF], f+1, rf+1)
	cc.dirs, cc.cap = extend(cc.dirs[:oldD], d, rd), extend(cc.cap[:oldD], d, rd)
	cc.hop = extend(cc.hop[:oldH], h, fn.regHops)

	// New directions, then new flows, each at its group's cursor.
	for j, id := range fn.newDirs {
		gr := &fn.groups[fn.ugrp[nk+int32(j)]]
		cc.dirs[gr.cd], cc.cap[gr.cd] = id, fn.dirs.at(id).cap
		fn.visits.at(id).pos = gr.cd
		gr.cd++
	}
	for i, s := range fn.dirtyFlows {
		gr := &fn.groups[fn.fgrp[i]]
		sl := fn.slots.at(s)
		cc.flows[gr.cf], cc.demand[gr.cf], cc.foff[gr.cf] = s, sl.demand, gr.ch
		gr.cf++
		for _, hp := range fn.hopPages[sl.page][sl.off : sl.off+sl.hops] {
			cc.hop[gr.ch] = fn.visits.at(hp.dir).pos - gr.d0
			gr.ch++
		}
	}
	fn.dirtyFlows = fn.dirtyFlows[:0]
	cc.foff[f] = h

	fn.comps = fn.comps[:p]
	for g := range fn.groups {
		fn.comps = append(fn.comps, fn.groups[g].fluidComp)
	}
	cc.load, cc.unfrozen, cc.sat = extend(cc.load[:0], d, rd), extend(cc.unfrozen[:0], d, rd), extend(cc.sat[:0], d, rd)
	cc.rate, cc.frozen = extend(cc.rate[:0], f, rf), extend(cc.frozen[:0], f, rf)
	fn.solve(fn.comps[p:], now)
	return true
}

// growNode returns direction id's union-find node in a grow settle: its
// kept component, found by binary search over their direction ranges, or
// on its first touch as a new direction a node of its own, whose number
// its visit record holds until the direction is placed.
func (fn *FluidNet) growNode(id, nk int32) int32 {
	v := fn.visits.at(id)
	switch {
	case v.mark == fn.gen:
		return v.pos
	case v.mark >= fn.keptFrom:
		lo, hi := int32(0), nk-1 // the component with d0 <= pos < d1
		for lo < hi {
			if mid := int32(uint32(lo+hi) >> 1); fn.comps[mid].d1 > v.pos {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	n := int32(len(fn.uf))
	*v = dirVisit{mark: fn.gen, pos: n}
	fn.uf = append(fn.uf, n)
	fn.newDirs = append(fn.newDirs, id)
	return n
}

// find returns the root of union-find node n, halving the path to it.
func (fn *FluidNet) find(n int32) int32 {
	uf := fn.uf
	for uf[n] != n {
		uf[n] = uf[uf[n]]
		n = uf[n]
	}
	return n
}

// extend returns s at length n with its records kept: in its own array
// when that is large enough, else in one with room for at least room
// records, and twice the old size when room is short of n.
func extend[T any](s []T, n, room int32) []T {
	if cap(s) >= int(n) {
		return s[:n]
	}
	c := max(n, room)
	if room < n {
		c = max(c, 2*int32(cap(s)))
	}
	t := make([]T, n, c)
	copy(t, s)
	return t
}

// Test seams; nothing else sets them. settleHook runs at the end of every
// settle: tests install the max-min certificate there. newNetHook runs on
// every new FluidNet: tests install the reference oracle there.
var (
	settleHook func(*FluidNet)
	newNetHook func(*FluidNet)
)

// reserve returns s emptied, with room for n: its own array when that
// is large enough, else one at least twice the size, so a working set
// that creeps upward reallocates O(log n) times.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, max(n, 2*cap(s)))
	}
	return s[:0]
}

// discoverComponent BFS-discovers the connected component containing
// the seed (a flow slot or a direction id; the other is -1) and compiles
// it onto the end of the settle's arrays. It delists flows that have
// fully stopped (queueing Release'd ones for recycling, and noting that
// the walk dropped a flow); only active flows stay in the compiled
// component, and publishComponent accrues them. Visited nodes are
// stamped with the settle generation so overlapping seeds coalesce into
// one component, and a direction's visit record keeps its position in
// the compiled dirs.
func (fn *FluidNet) discoverComponent(seedF, seedD int32) {
	cc := &fn.cc
	gen := fn.gen
	f0, d0, h0 := len(cc.flows), len(cc.dirs), len(cc.hop)
	if seedF >= 0 {
		fn.admit(seedF)
	}
	if seedD >= 0 {
		*fn.visits.at(seedD) = dirVisit{mark: gen, pos: int32(d0)}
		cc.dirs = append(cc.dirs, seedD)
	}
	// Admitting a flow copies its hops' direction ids into the compiled
	// hops; the walk then rewrites each to its direction's index within
	// the component, assigned at first visit, in admission order. Walking
	// a direction's occurrences records its capacity, at the same index,
	// and admits the flows met for the first time, so a flow's slot record
	// and hops are loaded where one flow's loads need not wait for
	// another's.
	for hi, di := h0, d0; hi < len(cc.hop) || di < len(cc.dirs); {
		for ; hi < len(cc.hop); hi++ {
			id := cc.hop[hi]
			v := fn.visits.at(id)
			if v.mark != gen {
				*v = dirVisit{mark: gen, pos: int32(len(cc.dirs))}
				cc.dirs = append(cc.dirs, id)
			}
			cc.hop[hi] = v.pos - int32(d0)
		}
		for ; di < len(cc.dirs); di++ {
			d := fn.dirs.at(cc.dirs[di])
			cc.cap = append(cc.cap, d.cap)
			for _, e := range d.flows {
				if *fn.marks.at(e.slot) != gen {
					fn.admit(e.slot)
				}
			}
		}
	}
	flows, foff, hop, demand := cc.flows, append(cc.foff, int32(len(cc.hop))), cc.hop, cc.demand

	// Keep the active flows, sliding their hop ranges down over those of
	// the flows dropped before them.
	w, wh := f0, foff[f0]
	for k := f0; k < len(flows); k++ {
		s, lo, hi := flows[k], foff[k], foff[k+1]
		if dm := demand[k]; dm >= 0 {
			flows[w], foff[w], demand[w] = s, wh, dm
			if wh != lo {
				copy(hop[wh:], hop[lo:hi])
			}
			wh += hi - lo
			w++
			continue
		}
		fn.dropped = true
		sl := fn.slots.at(s)
		if sl.listed {
			fn.stopped = append(fn.stopped, s)
		}
		if sl.released {
			fn.retire(s)
			fn.retired = append(fn.retired, s)
		}
	}
	// Delist the stopped flows. When none stays active, every occurrence
	// in the component's directions is theirs, so the lists are emptied
	// outright rather than swap-removed one occurrence at a time.
	if w == f0 {
		for _, id := range cc.dirs[d0:] {
			d := fn.dirs.at(id)
			d.flows = d.flows[:0]
		}
		for _, s := range fn.stopped {
			fn.delist(s)
		}
	} else {
		for _, s := range fn.stopped {
			fn.unlist(s)
		}
	}
	fn.stopped = fn.stopped[:0]
	cc.flows, cc.foff, cc.hop, cc.demand = flows[:w], foff[:w], hop[:wh], demand[:w]
	fn.comps = append(fn.comps, fluidComp{f0: int32(f0), f1: int32(w), d0: int32(d0), d1: int32(len(cc.dirs))})
}

// admit appends the flow in slot s to the component being compiled: it
// marks the flow visited, records its demand (-1 if it is not active; a
// demand is never negative) and copies its hops' direction ids.
func (fn *FluidNet) admit(s int32) {
	cc := &fn.cc
	*fn.marks.at(s) = fn.gen
	sl := fn.slots.at(s)
	dm := sl.demand
	if !sl.active {
		dm = -1
	}
	cc.flows = append(cc.flows, s)
	cc.demand = append(cc.demand, dm)
	cc.foff = append(cc.foff, int32(len(cc.hop)))
	for _, h := range fn.hopPages[sl.page][sl.off : sl.off+sl.hops] {
		cc.hop = append(cc.hop, h.dir)
	}
}

// accrue folds the delivered bits of the flow in slot s up to now into
// its running total: the expander's byte delta while promoted, rate ×
// elapsed while fluid.
func (fn *FluidNet) accrue(s int32, now time.Duration) {
	sl := fn.slots.at(s)
	if sl.promoted {
		f := *fn.handles.at(s)
		cur := f.exp.DeliveredBytes()
		sl.accrued += float64(float64(cur-f.expBase) * 8)
		f.expBase = cur
	} else if sl.active {
		sl.accrued += float64(sl.rate * (now - sl.lastAccrual).Seconds())
	}
	sl.lastAccrual = now
}

// fillComponent runs progressive filling over one component: all
// unfrozen flows' rates rise in lockstep until a flow hits its demand
// or a direction saturates; affected flows freeze and the filling
// continues among the rest. Each round freezes at least one flow, so
// the solve terminates in at most len(flows) rounds (uniform demands
// collapse to one or two). Every arithmetic step is a min-reduction or
// a per-entity update, so the result does not depend on the BFS visit
// order — only on the component's membership, which is unique — so a
// grow's compiled order and a walk's fill to the same rates. It reads and
// writes only the component's ranges of the compiled arrays, which is
// what makes the parallel settle race-free and bit-identical to serial.
func (cc *compiled) fillComponent(c *fluidComp) {
	caps, load := cc.cap[c.d0:c.d1], cc.load[c.d0:c.d1]
	unfrozen, sat := cc.unfrozen[c.d0:c.d1], cc.sat[c.d0:c.d1]
	demand, rate, frozen := cc.demand[c.f0:c.f1], cc.rate[c.f0:c.f1], cc.frozen[c.f0:c.f1]
	foff, hop := cc.foff[c.f0:c.f1+1], cc.hop
	clear(load)
	clear(unfrozen)
	clear(sat)
	clear(rate)
	clear(frozen)
	for _, d := range hop[foff[0]:foff[len(foff)-1]] {
		unfrozen[d]++
	}
	left := len(rate)
	for left > 0 {
		// Smallest increment that saturates a direction or satisfies a
		// demand.
		inc := math.Inf(1)
		for i, c := range caps {
			if unfrozen[i] == 0 || c <= 0 {
				continue
			}
			if h := (c - load[i]) / float64(unfrozen[i]); h < inc {
				inc = h
			}
		}
		for k := range demand {
			if frozen[k] {
				continue
			}
			if h := demand[k] - rate[k]; h < inc {
				inc = h
			}
		}
		if inc < 0 || math.IsInf(inc, 1) {
			inc = 0 // saturated below zero headroom, or all demands met
		}
		for k := range rate {
			if !frozen[k] {
				rate[k] += inc
			}
		}
		for i, c := range caps {
			load[i] += float64(inc * float64(unfrozen[i]))
			sat[i] = c > 0 && load[i] >= c*(1-1e-9)
		}
		froze := false
		for k := range rate {
			if frozen[k] {
				continue
			}
			fh := hop[foff[k]:foff[k+1]]
			stop := rate[k] >= demand[k]*(1-1e-9)
			if !stop {
				for _, d := range fh {
					if sat[d] {
						stop = true
						break
					}
				}
			}
			if stop {
				frozen[k] = true
				froze = true
				left--
				for _, d := range fh {
					unfrozen[d]--
				}
			}
		}
		if !froze {
			// Floating-point pathology guard: freeze everything rather
			// than spin.
			for k := range frozen {
				if !frozen[k] {
					frozen[k] = true
					left--
				}
			}
		}
	}
}

// publishComponent writes one solved component's rates back by slot,
// publishes its aggregate loads to the packet tier and retargets promoted
// flows' expanders. Every write is to the component's own flows,
// directions and expanders, so the order components are published in
// changes no rate, load or delivered bit; it runs serially, in solve
// order, because an expander is caller code.
func (fn *FluidNet) publishComponent(c *fluidComp, now time.Duration) {
	cc := &fn.cc
	dirs, load := cc.dirs[c.d0:c.d1], cc.load[c.d0:c.d1]
	flows, rate := cc.flows[c.f0:c.f1], cc.rate[c.f0:c.f1]
	for i, id := range dirs {
		fn.dirs.at(id).load = load[i]
	}
	for k, s := range flows {
		fn.accrue(s, now) // at the old rate
		sl := fn.slots.at(s)
		sl.rate = rate[k]
		if sl.promoted {
			(*fn.handles.at(s)).exp.SetRate(rate[k])
		}
	}
}

// FluidFlow is a rate process managed by a FluidNet.
// The object is the caller's handle; what the settle reads of the flow
// lives in the FluidNet's slot arrays.
type FluidFlow struct {
	net  *FluidNet
	slot int32 // fixed for the object's life, across recycling
	id   int

	exp     Expander
	expBase uint64
}

// state returns the flow's slot record.
func (f *FluidFlow) state() *flowSlot { return f.net.slots.at(f.slot) }

// ID returns the flow's creation index (the allocator's iteration
// order).
func (f *FluidFlow) ID() int { return f.id }

// Demand returns the flow's offered load in bits/s.
func (f *FluidFlow) Demand() float64 { return f.state().demand }

// Rate returns the current max-min allocation in bits/s (zero until the
// first settle after Start).
func (f *FluidFlow) Rate() float64 { return f.state().rate }

// Active reports whether the flow is between Start and Stop.
func (f *FluidFlow) Active() bool { return f.state().active }

// Start activates the flow. Its load joins the allocation at the next
// epoch boundary. Idempotent.
func (f *FluidFlow) Start() {
	s := f.state()
	if s.active {
		return
	}
	s.active = true
	f.net.active++
	s.lastAccrual = f.net.sched.Now()
	if !s.listed {
		f.net.list(f.slot)
	}
	f.net.dirtyFlow(f.slot)
	f.net.markDirty()
}

// Stop deactivates the flow; its load leaves the links at the next
// epoch boundary. A promoted flow's expander stops immediately.
// Idempotent.
func (f *FluidFlow) Stop() {
	if !f.Active() {
		return
	}
	f.net.accrue(f.slot, f.net.sched.Now())
	if f.exp != nil {
		f.demoteLocked()
	}
	s := f.state()
	s.active = false
	f.net.active--
	f.net.edited = true
	s.rate = 0
	f.net.dirtyFlow(f.slot)
	f.net.markDirty()
}

// Release hands the flow back to the allocator's free list once it is
// fully retired: an active flow is stopped first and recycled at the
// settle that delists it; an already-stopped listed flow is recycled
// at its pending settle; a never-listed flow is recycled immediately.
// A promoted flow is demoted first, as Stop does, so its expander stops
// and the bytes it delivered count. The flow's delivered bits are folded
// into FluidNet.RetiredBits. The caller must drop every reference — the
// object will be reused by a future NewFlow.
func (f *FluidFlow) Release() {
	s := f.state()
	if s.released {
		return
	}
	f.Demote()
	s.released = true
	f.net.unretired++
	if s.active {
		f.Stop()
		return
	}
	if s.listed || s.dirtyMk {
		// Stopped but still listed: its final settle (already queued by
		// Stop) will delist and recycle it.
		return
	}
	f.net.retire(f.slot)
	f.net.recycle(f)
}

// SetDemand retargets the flow's offered load (bits/s, clamped to
// finite non-negative). An active flow's links re-settle at the next
// epoch boundary.
func (f *FluidFlow) SetDemand(bps float64) {
	if math.IsNaN(bps) || math.IsInf(bps, 0) || bps < 0 {
		bps = 0
	}
	s := f.state()
	if bps == s.demand {
		return
	}
	s.demand = bps
	if s.active {
		f.net.edited = true
		f.net.dirtyFlow(f.slot)
		f.net.markDirty()
	}
}

// Promote expands the flow across a packet-exact region: from now on
// exp emits real packets at the flow's allocated rate and delivered
// bytes are read from the packet tier instead of accrued analytically.
// The flow's fluid path (its hops outside the region) keeps carrying
// its aggregate load. Promoting an already-promoted flow panics.
func (f *FluidFlow) Promote(exp Expander) {
	if f.exp != nil {
		panic(fmt.Sprintf("traffic: fluid flow %d promoted twice", f.id))
	}
	f.net.accrue(f.slot, f.net.sched.Now())
	f.exp = exp
	f.expBase = exp.DeliveredBytes()
	f.state().promoted = true
	exp.SetRate(f.Rate())
	exp.Start()
}

// Demote collapses the flow back to a pure rate process: the expander's
// delivered bytes are folded into the flow's total and analytic accrual
// resumes. No-op if not promoted.
func (f *FluidFlow) Demote() {
	if f.exp == nil {
		return
	}
	f.demoteLocked()
}

func (f *FluidFlow) demoteLocked() {
	f.net.accrue(f.slot, f.net.sched.Now()) // folds expander bytes, resets lastAccrual
	f.exp.Stop()
	f.exp = nil
	f.state().promoted = false
}

// Promoted reports whether the flow currently drives a packet expander.
func (f *FluidFlow) Promoted() bool { return f.exp != nil }

// DeliveredBits returns the flow's cumulative delivered traffic in bits
// up to the scheduler's current time.
func (f *FluidFlow) DeliveredBits() float64 {
	f.net.accrue(f.slot, f.net.sched.Now())
	return f.state().accrued
}

// DeliveredBytes returns DeliveredBits in bytes, rounded down.
func (f *FluidFlow) DeliveredBytes() uint64 {
	// The explicit float64 keeps ppc64le from fusing the division (a
	// multiply by 1/8) into its uint64 conversion's subtraction of 2⁶³.
	return uint64(float64(f.DeliveredBits() / 8))
}

// UDPExpander adapts a UDPSource/UDPSink pair to the Expander
// interface, letting a promoted fluid flow drive real datagrams through
// a packet-exact region and measure what actually arrived.
type UDPExpander struct {
	Src  *UDPSource
	Sink *UDPSink
}

var _ Expander = (*UDPExpander)(nil)

// NewUDPExpander wires a source and sink into an expander.
func NewUDPExpander(src *UDPSource, sink *UDPSink) *UDPExpander {
	return &UDPExpander{Src: src, Sink: sink}
}

// SetRate implements Expander.
func (e *UDPExpander) SetRate(bps float64) { e.Src.SetRate(bps) }

// Start implements Expander.
func (e *UDPExpander) Start() { e.Src.Start() }

// Stop implements Expander.
func (e *UDPExpander) Stop() { e.Src.Stop() }

// DeliveredBytes implements Expander with the sink's unique payload
// bytes.
func (e *UDPExpander) DeliveredBytes() uint64 { return e.Sink.Stats().UniqueBytes }
