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
// carry its allocated rate as aggregate load (netem.Link.SetFluidLoad),
// which the packet tier sees as shrunken effective capacity and
// inflated queue delay. This is what makes million-flow scenarios
// tractable: cost scales with rate *changes* (epoch settles), not with
// packets.
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
// progressive filling, and FluidConfig.FullResettle (the reference
// oracle) simply seeds every component dirty; both modes run the same
// per-component solver, which is what makes them bit-identical.

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

	// FullResettle disables the dirty-set optimisation: every settle
	// re-solves every connected component from scratch. This is the
	// reference oracle the incremental mode is differentially tested
	// against; both run the same per-component solver, so their rates
	// are bit-identical.
	FullResettle bool

	// CongestionRho, when > 0, fires OnCongested after a settle for
	// every active, unpromoted flow crossing a direction whose
	// utilisation load/cap reached the threshold. Callbacks fire in
	// deterministic order (dirty-seed order, then per-direction flow
	// order), once per flow per settle, after all loads are pushed —
	// so a callback may promote the flow immediately.
	CongestionRho float64
	OnCongested   func(f *FluidFlow, rho float64)

	// DemoteRho, when > 0, is the hysteresis lower threshold for
	// congestion-promoted flows: after a settle, every promoted flow in
	// a touched component whose worst direction utilisation has fallen
	// below DemoteRho — and that has been promoted for at least
	// DemoteAfter — gets an OnUncongested callback (which typically
	// calls Demote). Evaluated only when the flow's component is
	// re-solved: an untouched component's utilisations have not
	// changed, so no new demotion evidence exists for it. Callbacks
	// fire after OnCongested ones, in component order.
	DemoteRho     float64
	DemoteAfter   time.Duration
	OnUncongested func(f *FluidFlow, rho float64)

	// SettleWorkers fans the per-component progressive-filling solves
	// of one settle across a worker pool. Components are independent by
	// construction (they partition the flow/direction graph), component
	// discovery and result publication stay serial in deterministic
	// seed order, and the per-component arithmetic is untouched — so
	// allocations are bit-identical at every worker count, which the
	// differential tests pin. <= 1 solves serially on the caller.
	SettleWorkers int
}

// fluidDir is the allocator's per-(link, direction) state. The narrow
// field types keep it at 64 bytes, one cache line: the arrival path's
// first touch and the settle's component walk each miss once per
// direction.
type fluidDir struct {
	link *netem.Link
	cap  float64 // link capacity in bits/s; 0 = unconstrained

	// flows lists every path occurrence of a listed flow through this
	// direction (a flow appears once per traversal), maintained by
	// list/unlist with swap-removal. It is the edge set the settle
	// pass's component BFS walks.
	flows []dirFlow

	// registered counts the path occurrences of every flow NewFlow has
	// handed out and recycle has not taken back: what flows can grow to,
	// known before the first of them starts.
	registered int32

	mark int32 // settle generation this dir was last visited in

	// Scratch for one settle pass.
	load     float64 // total allocated rate through this direction
	unfrozen int32   // flows still receiving increments
	sat      bool    // saturated this round

	dirty bool  // queued in dirtyDirs for the next settle
	end   uint8 // 0 or 1
}

// dirFlow is one path occurrence of a flow through a direction: the
// flow plus the index of this direction in the flow's own hop list
// (so a swap-removal can fix the moved occurrence's back-pointer).
type dirFlow struct {
	f  *FluidFlow
	di int
}

// flowHop is one hop of a flow's path: the direction it crosses and the
// flow's slot in that direction's occurrence list — the back-pointer
// swap-removal needs, beside the pointer every walk loads anyway.
type flowHop struct {
	d   *fluidDir
	pos int
}

// dirKey keys the fallback map for directions that cannot live in the
// index table (see FluidNet.dirTab).
type dirKey struct {
	link *netem.Link
	end  int
}

// Records per slab chunk (see carve): 32 KB each of directions, flows
// and hops, 64 KB of occurrences.
const (
	dirSlabChunk  = 512
	hopSlabChunk  = 2048
	occSlabChunk  = 4096
	flowSlabChunk = 256
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

	flows  []*FluidFlow // listed flows (order perturbed by swap-removal)
	dirs   []*fluidDir  // first-touch order
	nextID int

	// Direction lookup. A link built through a netem.Network carries a
	// dense creation index, so its two directions live at
	// dirTab[Index()*2+End]: nil until a flow first traverses them, never
	// moved or freed afterwards. dirOf takes what the table cannot:
	// standalone links (Index() == -1) and links whose slot another link
	// already owns (two Networks feeding one FluidNet). It stays nil
	// until such a link shows up.
	dirTab []*fluidDir
	dirOf  map[dirKey]*fluidDir

	// Graph storage, carved from slab chunks: direction records, flow
	// objects, each flow's hop records and each direction's first
	// occurrence list (sized to its registered count).
	dirSlab  []fluidDir
	flowSlab []FluidFlow
	hopSlab  []flowHop
	occSlab  []dirFlow

	// Dirty seeds for the next settle, in event order. A flow or dir
	// appears at most once (guarded by its dirty flag).
	dirtyFlows []*FluidFlow
	dirtyDirs  []*fluidDir

	// Settle scratch, reused across passes so the steady-state settle
	// path allocates nothing. comps[:ncomps] holds this settle's
	// discovered components; entries keep their slice capacity across
	// settles.
	comps       []fluidComp
	ncomps      int
	congested   []congEvent
	uncongested []congEvent
	seeds       []*FluidFlow // full-mode snapshot of flows (delisting-safe)
	retired     []*FluidFlow // delisted flows awaiting recycle this settle
	cuts        []int        // parallel fill: range r is comps[cuts[r]:cuts[r+1]]
	gen         int32

	// Flow arena: Release'd flows are recycled through this free list
	// once their final settle has delisted them, so steady-state churn
	// (NewFlow/Start/.../Stop/Release) allocates no flow objects.
	freeFlows   []*FluidFlow
	recycled    uint64
	retiredBits float64

	full        bool
	congRho     float64
	onCong      func(f *FluidFlow, rho float64)
	demoteRho   float64
	demoteAfter time.Duration
	onUncong    func(f *FluidFlow, rho float64)
	workers     int

	dirty      bool
	armed      bool
	timer      sim.Timer
	onEpochFn  func()
	settles    uint64
	compSolves uint64
}

// fluidComp is one connected component of the flow/direction graph
// discovered by a settle: the active flows to allocate and the
// directions constraining them. Slices are recycled across settles.
type fluidComp struct {
	flows []*FluidFlow
	dirs  []*fluidDir
}

// congEvent is one pending OnCongested callback.
type congEvent struct {
	f   *FluidFlow
	rho float64
}

// NewFluidNet creates an empty fluid tier on the scheduler.
func NewFluidNet(sched *sim.Scheduler, cfg FluidConfig) *FluidNet {
	if cfg.Epoch <= 0 {
		cfg.Epoch = 10 * time.Millisecond
	}
	fn := &FluidNet{
		sched:       sched,
		epoch:       cfg.Epoch,
		full:        cfg.FullResettle,
		congRho:     cfg.CongestionRho,
		onCong:      cfg.OnCongested,
		demoteRho:   cfg.DemoteRho,
		demoteAfter: cfg.DemoteAfter,
		onUncong:    cfg.OnUncongested,
		workers:     cfg.SettleWorkers,
	}
	fn.onEpochFn = fn.onEpoch // bound once; arming a timer allocates nothing
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

// Close cancels any pending epoch timer. Loads already pushed to links
// stay as they are; call after the measurement window closes.
func (fn *FluidNet) Close() {
	fn.timer.Stop()
	fn.armed = false
	fn.dirty = false
}

// NewFlow registers a rate process with the given demand (bits/s) and
// directed path, counting each hop into its direction so that list can
// size the direction's occurrence list once. The flow is idle until
// Start. Demand is clamped to finite non-negative; a nil link or an End
// outside {0, 1} in the path panics (construction bug). Flow objects
// come from the Release free list when one is available, else from the
// flow slab; a recycled flow keeps its hop records when the new path
// fits them, so steady-state churn allocates nothing.
func (fn *FluidNet) NewFlow(demand float64, path []Hop) *FluidFlow {
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
		f.net = fn
	}
	f.id, f.demand = fn.nextID, demand
	fn.nextID++
	if cap(f.hops) >= len(path) {
		f.hops = f.hops[:len(path)]
	} else {
		f.hops = carve(&fn.hopSlab, len(path), hopSlabChunk)
	}
	for i, h := range path {
		if h.Link == nil {
			panic(fmt.Sprintf("traffic: fluid flow %d hop %d has nil link", f.id, i))
		}
		if h.End&^1 != 0 {
			panic(fmt.Sprintf("traffic: fluid flow %d hop %d has end %d, want 0 or 1", f.id, i, h.End))
		}
		d := fn.dirFor(h)
		d.registered++
		f.hops[i].d = d
	}
	return f
}

// recycle resets a fully-delisted Release'd flow and returns it to the
// free list, folding its delivered bits into the retired total and
// taking its hops back out of their directions' registered counts.
func (fn *FluidNet) recycle(f *FluidFlow) {
	fn.retiredBits += f.accrued
	for _, h := range f.hops {
		h.d.registered--
	}
	f.id = -1
	f.demand = 0
	f.hops = f.hops[:0]
	f.rate = 0
	f.frozen = false
	f.released = false
	f.accrued = 0
	f.lastAccrual = 0
	f.exp = nil
	f.expBase = 0
	f.promotedAt = 0
	fn.freeFlows = append(fn.freeFlows, f)
}

// lookupDir returns the direction's state, or nil if no flow has ever
// traversed it. end is 0 or 1. An indexed link is in the map only when
// its slot belongs to another link, so a free or out-of-range slot
// answers without a probe.
func (fn *FluidNet) lookupDir(l *netem.Link, end int) *fluidDir {
	if idx := l.Index(); idx >= 0 {
		slot := idx*2 + end
		if slot >= len(fn.dirTab) {
			return nil
		}
		if d := fn.dirTab[slot]; d == nil || d.link == l {
			return d
		}
	}
	return fn.dirOf[dirKey{link: l, end: end}]
}

// dirFor returns the allocator state of h's direction, creating it on
// first touch: a record carved from the slab, appended to the
// first-touch list and entered in the table (or the map, see dirTab).
// h.Link is non-nil and h.End is 0 or 1 (NewFlow checked).
func (fn *FluidNet) dirFor(h Hop) *fluidDir {
	if d := fn.lookupDir(h.Link, h.End); d != nil {
		return d
	}
	d := &carve(&fn.dirSlab, 1, dirSlabChunk)[0]
	*d = fluidDir{link: h.Link, end: uint8(h.End), cap: h.Link.Capacity()}
	fn.dirs = append(fn.dirs, d)

	if idx := h.Link.Index(); idx >= 0 {
		slot := idx*2 + h.End
		if slot >= len(fn.dirTab) {
			// Extend to the slot, at least doubling, so touching links in
			// ascending order reallocates O(log n) times. A fabric creates
			// its host links last and every flow starts on one, so there
			// the first few flows size the table for good.
			n := 2 * len(fn.dirTab)
			if n <= slot {
				n = slot + 1
			}
			grown := make([]*fluidDir, n)
			copy(grown, fn.dirTab)
			fn.dirTab = grown
		}
		if fn.dirTab[slot] == nil {
			fn.dirTab[slot] = d
			return d
		}
	}
	if fn.dirOf == nil {
		fn.dirOf = make(map[dirKey]*fluidDir)
	}
	fn.dirOf[dirKey{link: h.Link, end: h.End}] = d
	return d
}

// SetCapacity overrides the allocator's capacity for the (link, end)
// direction — chaos hooks and tests use it to model capacity changes.
// It is a no-op for a direction no fluid flow has ever traversed, for a
// nil link, for an end outside {0, 1} and for a bps that is negative,
// NaN or infinite (0 means unconstrained). The new allocation takes
// effect at the next epoch boundary.
func (fn *FluidNet) SetCapacity(l *netem.Link, end int, bps float64) {
	if l == nil || end&^1 != 0 || !(bps >= 0) || math.IsInf(bps, 1) {
		return
	}
	d := fn.lookupDir(l, end)
	if d == nil || d.cap == bps {
		return
	}
	d.cap = bps
	fn.dirtyDir(d)
	fn.markDirty()
}

// dirtyFlow queues f as a settle seed (once per settle).
func (fn *FluidNet) dirtyFlow(f *FluidFlow) {
	if !f.dirtyMk {
		f.dirtyMk = true
		fn.dirtyFlows = append(fn.dirtyFlows, f)
	}
}

// dirtyDir queues d as a settle seed (once per settle).
func (fn *FluidNet) dirtyDir(d *fluidDir) {
	if !d.dirty {
		d.dirty = true
		fn.dirtyDirs = append(fn.dirtyDirs, d)
	}
}

// list enters f into the allocator: the flow list plus every traversed
// direction's occurrence list. The first Start reserves the flow and
// dirty-seed lists for every flow registered by then. A full occurrence
// list is resized to its direction's registered count — with no floor,
// which churn's many one-flow directions would pay for — or doubled when
// flows register one at a time; only the first size is carved, so an
// outgrown array goes to the collector instead of leaving a hole.
func (fn *FluidNet) list(f *FluidFlow) {
	if fn.flows == nil {
		n := fn.nextID - int(fn.recycled) - len(fn.freeFlows)
		fn.flows = make([]*FluidFlow, 0, n)
		fn.dirtyFlows = make([]*FluidFlow, 0, n)
	}
	f.listed = true
	f.listPos = len(fn.flows)
	fn.flows = append(fn.flows, f)
	for i := range f.hops {
		h := &f.hops[i]
		d := h.d
		if n := len(d.flows); cap(d.flows) == 0 {
			d.flows = carve(&fn.occSlab, int(d.registered), occSlabChunk)[:0]
		} else if n == cap(d.flows) {
			d.flows = append(make([]dirFlow, 0, max(int(d.registered), 2*n)), d.flows...)
		}
		h.pos = len(d.flows)
		d.flows = append(d.flows, dirFlow{f: f, di: i})
	}
}

// unlist removes f from the allocator by swap-removal, fixing the
// back-pointers of whatever moved into the vacated slots.
func (fn *FluidNet) unlist(f *FluidFlow) {
	for _, h := range f.hops {
		d, p := h.d, h.pos
		last := len(d.flows) - 1
		moved := d.flows[last]
		d.flows[p] = moved
		moved.f.hops[moved.di].pos = p
		d.flows[last] = dirFlow{} // release the pointer to the GC
		d.flows = d.flows[:last]
	}
	p := f.listPos
	last := len(fn.flows) - 1
	fn.flows[p] = fn.flows[last]
	fn.flows[p].listPos = p
	fn.flows[last] = nil
	fn.flows = fn.flows[:last]
	f.listed = false
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
// In FullResettle mode every flow and direction is seeded, which makes
// every settle a from-scratch solve of every component through the
// identical code path — the oracle the incremental mode is compared
// against bit for bit.
// The settle is a three-phase pass so the per-component solves can fan
// across workers without giving up bit-identity:
//
//	discover (serial) — BFS each dirty seed's component, accrue touched
//	  flows at their old rates, delist stopped flows; mutates shared
//	  state (generation marks, the flow list) so it stays on the caller.
//	fill (parallel) — progressive filling per component. Touches only
//	  component-local state (flow rates, direction loads); components
//	  partition the graph, so solves are independent and the arithmetic
//	  is identical at every worker count.
//	publish (serial, component order) — push loads into the packet
//	  tier, retarget promoted expanders, collect congestion/demotion
//	  candidates; ordering-sensitive (scheduler, callbacks), so it runs
//	  in deterministic discovery order.
func (fn *FluidNet) settle() {
	fn.dirty = false
	now := fn.sched.Now()
	fn.gen++
	fn.ncomps = 0

	fn.congested = fn.congested[:0]
	fn.uncongested = fn.uncongested[:0]
	if fn.full {
		// Seed everything. Still one solve per component: discovery
		// skips seeds already swept into an earlier component this
		// generation, so full mode differs from incremental mode only in
		// which components it visits, never in how it solves one. The
		// flow list is snapshotted because discovery delists stopped
		// flows by swap-removal; a snapshot entry delisted early is
		// marked, so the generation check skips it.
		fn.seeds = append(fn.seeds[:0], fn.flows...)
		for i, f := range fn.seeds {
			fn.seeds[i] = nil
			if f.mark != fn.gen {
				fn.discoverComponent(f, nil, now)
			}
		}
		fn.seeds = fn.seeds[:0]
		for _, d := range fn.dirs {
			if d.mark != fn.gen {
				fn.discoverComponent(nil, d, now)
			}
		}
		// Event-order seeds may include flows delisted above; their
		// flags still need clearing.
		for i, f := range fn.dirtyFlows {
			f.dirtyMk = false
			fn.dirtyFlows[i] = nil
		}
		for i, d := range fn.dirtyDirs {
			d.dirty = false
			fn.dirtyDirs[i] = nil
		}
	} else {
		for i, f := range fn.dirtyFlows {
			f.dirtyMk = false
			fn.dirtyFlows[i] = nil
			if f.mark != fn.gen {
				fn.discoverComponent(f, nil, now)
			}
		}
		for i, d := range fn.dirtyDirs {
			d.dirty = false
			fn.dirtyDirs[i] = nil
			if d.mark != fn.gen {
				fn.discoverComponent(nil, d, now)
			}
		}
	}
	fn.dirtyFlows = fn.dirtyFlows[:0]
	fn.dirtyDirs = fn.dirtyDirs[:0]

	// Solve. The parallel path is taken only when there is real fan-out
	// to win; either way the per-component arithmetic is the same code.
	// Workers are handed contiguous ranges of components, not components:
	// a churn settle has thousands of them, a handful of flows each, and
	// one dispatch apiece costs more than the solve. Ranges are cut at
	// equal shares of the components' flows plus directions.
	if k := min(fn.workers, fn.ncomps); k > 1 {
		weight := func(i int) int { return len(fn.comps[i].flows) + len(fn.comps[i].dirs) }
		total := 0
		for i := 0; i < fn.ncomps; i++ {
			total += weight(i)
		}
		fn.cuts = append(fn.cuts[:0], 0)
		for i, acc := 0, 0; i < fn.ncomps; i++ {
			acc += weight(i)
			for len(fn.cuts) < k && acc*k >= len(fn.cuts)*total {
				fn.cuts = append(fn.cuts, i+1)
			}
		}
		fn.cuts = append(fn.cuts, fn.ncomps)
		_, errs := pool.Map(context.Background(), k, k,
			func(r int) (struct{}, error) {
				for i := fn.cuts[r]; i < fn.cuts[r+1]; i++ {
					fillComponent(&fn.comps[i])
				}
				return struct{}{}, nil
			})
		for _, err := range errs {
			if err != nil {
				panic(err) // PanicError from a solve: surface, don't swallow
			}
		}
	} else {
		for i := 0; i < fn.ncomps; i++ {
			fillComponent(&fn.comps[i])
		}
	}
	fn.compSolves += uint64(fn.ncomps)

	for i := 0; i < fn.ncomps; i++ {
		fn.publishComponent(&fn.comps[i], now)
	}
	fn.settles++

	// Congestion callbacks fire last, after every component's loads are
	// pushed, so a callback sees a consistent network and may promote.
	// Demotion (hysteresis) callbacks follow.
	for i := range fn.congested {
		ev := fn.congested[i]
		fn.congested[i] = congEvent{}
		fn.onCong(ev.f, ev.rho)
	}
	fn.congested = fn.congested[:0]
	for i := range fn.uncongested {
		ev := fn.uncongested[i]
		fn.uncongested[i] = congEvent{}
		fn.onUncong(ev.f, ev.rho)
	}
	fn.uncongested = fn.uncongested[:0]

	// Recycle Release'd flows whose final settle just delisted them.
	// Deferred to the very end so no seed list, component slice or
	// callback can observe a reset flow.
	for i, f := range fn.retired {
		fn.retired[i] = nil
		fn.recycle(f)
	}
	fn.retired = fn.retired[:0]
}

// grabComp returns the next recycled component slot for this settle.
func (fn *FluidNet) grabComp() *fluidComp {
	if fn.ncomps == len(fn.comps) {
		fn.comps = append(fn.comps, fluidComp{})
	}
	c := &fn.comps[fn.ncomps]
	fn.ncomps++
	c.flows = c.flows[:0]
	c.dirs = c.dirs[:0]
	return c
}

// discoverComponent BFS-discovers the connected component containing
// the seed (a flow or a direction) into a recycled component slot,
// accrues every touched flow to now at its old rate before anything
// changes, and delists flows that have fully stopped (queueing
// Release'd ones for recycling). Visited nodes are stamped with the
// settle generation so overlapping seeds coalesce into one component.
// (Untouched flows need no accrual: their rate is constant, so the
// lazy accrue at next touch integrates the same total.)
func (fn *FluidNet) discoverComponent(seedF *FluidFlow, seedD *fluidDir, now time.Duration) {
	c := fn.grabComp()
	flows := c.flows
	dirs := c.dirs
	if seedF != nil {
		seedF.mark = fn.gen
		flows = append(flows, seedF)
	}
	if seedD != nil {
		seedD.mark = fn.gen
		dirs = append(dirs, seedD)
	}
	for fi, di := 0, 0; fi < len(flows) || di < len(dirs); {
		for ; fi < len(flows); fi++ {
			for _, h := range flows[fi].hops {
				if d := h.d; d.mark != fn.gen {
					d.mark = fn.gen
					dirs = append(dirs, d)
				}
			}
		}
		for ; di < len(dirs); di++ {
			for _, e := range dirs[di].flows {
				if e.f.mark != fn.gen {
					e.f.mark = fn.gen
					flows = append(flows, e.f)
				}
			}
		}
	}

	act := flows[:0]
	for _, f := range flows {
		f.accrue(now)
		if f.active {
			act = append(act, f)
		} else {
			if f.listed {
				fn.unlist(f)
			}
			if f.released {
				fn.retired = append(fn.retired, f)
			}
		}
	}
	c.flows = act
	c.dirs = dirs
}

// fillComponent runs progressive filling over one component: all
// unfrozen flows' rates rise in lockstep until a flow hits its demand
// or a direction saturates; affected flows freeze and the filling
// continues among the rest. Each round freezes at least one flow, so
// the solve terminates in at most len(flows) rounds (uniform demands
// collapse to one or two). Every arithmetic step is a min-reduction or
// a per-entity update, so the result does not depend on the BFS visit
// order — only on the component's membership, which is unique. It
// touches nothing outside the component (no FluidNet state), which is
// what makes the parallel settle race-free and bit-identical to
// serial.
func fillComponent(c *fluidComp) {
	act := c.flows
	dirs := c.dirs
	for _, d := range dirs {
		d.load, d.unfrozen, d.sat = 0, 0, false
	}
	for _, f := range act {
		f.rate = 0
		f.frozen = false
		for _, h := range f.hops {
			h.d.unfrozen++
		}
	}
	unfrozen := len(act)
	for unfrozen > 0 {
		// Smallest increment that saturates a direction or satisfies a
		// demand.
		inc := math.Inf(1)
		for _, d := range dirs {
			if d.unfrozen == 0 || d.cap <= 0 {
				continue
			}
			if h := (d.cap - d.load) / float64(d.unfrozen); h < inc {
				inc = h
			}
		}
		for _, f := range act {
			if f.frozen {
				continue
			}
			if h := f.demand - f.rate; h < inc {
				inc = h
			}
		}
		if inc < 0 || math.IsInf(inc, 1) {
			inc = 0 // saturated below zero headroom, or all demands met
		}
		for _, f := range act {
			if !f.frozen {
				f.rate += inc
			}
		}
		for _, d := range dirs {
			d.load += float64(inc * float64(d.unfrozen))
			d.sat = d.cap > 0 && d.load >= d.cap*(1-1e-9)
		}
		froze := false
		for _, f := range act {
			if f.frozen {
				continue
			}
			stop := f.rate >= f.demand*(1-1e-9)
			if !stop {
				for _, h := range f.hops {
					if h.d.sat {
						stop = true
						break
					}
				}
			}
			if stop {
				f.frozen = true
				froze = true
				unfrozen--
				for _, h := range f.hops {
					h.d.unfrozen--
				}
			}
		}
		if !froze {
			// Floating-point pathology guard: freeze everything rather
			// than spin.
			for _, f := range act {
				if !f.frozen {
					f.frozen = true
					unfrozen--
				}
			}
		}
	}
}

// publishComponent pushes one solved component's aggregate loads into
// the packet tier, retargets promoted flows' expanders, and collects
// congestion-promotion and hysteresis-demotion candidates. Runs
// serially in component-discovery order: everything here is
// ordering-sensitive (scheduler interactions, callback order).
func (fn *FluidNet) publishComponent(c *fluidComp, now time.Duration) {
	act := c.flows
	dirs := c.dirs
	for _, d := range dirs {
		d.link.SetFluidLoad(int(d.end), d.load)
	}
	for _, f := range act {
		if f.exp != nil {
			f.exp.SetRate(f.rate)
		}
	}

	// Congestion-promotion candidates: active unpromoted flows crossing
	// a direction at or above the utilisation threshold, each at most
	// once per settle (the congestion stamp), tagged with the
	// triggering direction's utilisation.
	if fn.onCong != nil && fn.congRho > 0 {
		for _, d := range dirs {
			if d.cap <= 0 {
				continue
			}
			rho := d.load / d.cap
			if rho < fn.congRho {
				continue
			}
			for _, e := range d.flows {
				f := e.f
				if f.congMark == fn.gen || !f.active || f.exp != nil {
					continue
				}
				f.congMark = fn.gen
				fn.congested = append(fn.congested, congEvent{f: f, rho: rho})
			}
		}
	}

	// Hysteresis-demotion candidates: promoted flows whose worst
	// direction utilisation has dropped below the lower threshold and
	// whose cooldown has elapsed.
	if fn.onUncong != nil && fn.demoteRho > 0 {
		for _, f := range act {
			if f.exp == nil || now-f.promotedAt < fn.demoteAfter {
				continue
			}
			worst := 0.0
			for _, h := range f.hops {
				if h.d.cap <= 0 {
					continue
				}
				if rho := h.d.load / h.d.cap; rho > worst {
					worst = rho
				}
			}
			if worst < fn.demoteRho {
				fn.uncongested = append(fn.uncongested, congEvent{f: f, rho: worst})
			}
		}
	}
}

// FluidFlow is a rate process managed by a FluidNet. It satisfies Flow.
type FluidFlow struct {
	net     *FluidNet
	id      int
	demand  float64
	hops    []flowHop // the path, one record per hop
	listPos int       // slot in the allocator's flow list

	rate   float64 // current allocation, bits/s
	frozen bool    // settle scratch

	active   bool
	listed   bool  // in the allocator's flow + per-direction lists
	dirtyMk  bool  // queued in dirtyFlows for the next settle
	released bool  // recycled into the free list once delisted
	mark     int32 // settle generation last visited (component BFS)
	congMark int32 // settle generation OnCongested last fired

	// Delivered-bit accounting: lazy accrual at the current rate while
	// fluid, expander byte deltas while promoted.
	accrued     float64
	lastAccrual time.Duration

	exp        Expander
	expBase    uint64
	promotedAt time.Duration // virtual time of Promote (hysteresis cooldown)
}

// ID returns the flow's creation index (the allocator's iteration
// order).
func (f *FluidFlow) ID() int { return f.id }

// Mode implements Flow.
func (f *FluidFlow) Mode() FlowMode { return FlowFluid }

// Demand returns the flow's offered load in bits/s.
func (f *FluidFlow) Demand() float64 { return f.demand }

// Rate returns the current max-min allocation in bits/s (zero until the
// first settle after Start).
func (f *FluidFlow) Rate() float64 { return f.rate }

// Active reports whether the flow is between Start and Stop.
func (f *FluidFlow) Active() bool { return f.active }

// Start activates the flow. Its load joins the allocation at the next
// epoch boundary. Idempotent.
func (f *FluidFlow) Start() {
	if f.active {
		return
	}
	f.active = true
	f.lastAccrual = f.net.sched.Now()
	if !f.listed {
		f.net.list(f)
	}
	f.net.dirtyFlow(f)
	f.net.markDirty()
}

// Stop deactivates the flow; its load leaves the links at the next
// epoch boundary. A promoted flow's expander stops immediately.
// Idempotent.
func (f *FluidFlow) Stop() {
	if !f.active {
		return
	}
	f.accrue(f.net.sched.Now())
	if f.exp != nil {
		f.demoteLocked()
	}
	f.active = false
	f.rate = 0
	f.net.dirtyFlow(f)
	f.net.markDirty()
}

// Release hands the flow back to the allocator's free list once it is
// fully retired: an active flow is stopped first and recycled at the
// settle that delists it; an already-stopped listed flow is recycled
// at its pending settle; a never-listed flow is recycled immediately.
// The flow's delivered bits are folded into FluidNet.RetiredBits. The
// caller must drop every reference — the object will be reused by a
// future NewFlow.
func (f *FluidFlow) Release() {
	if f.released {
		return
	}
	f.released = true
	if f.active {
		f.Stop()
		return
	}
	if f.listed || f.dirtyMk {
		// Stopped but still listed: its final settle (already queued by
		// Stop) will delist and recycle it.
		return
	}
	f.net.recycle(f)
}

// SetDemand retargets the flow's offered load (bits/s, clamped to
// finite non-negative). An active flow's links re-settle at the next
// epoch boundary.
func (f *FluidFlow) SetDemand(bps float64) {
	if math.IsNaN(bps) || math.IsInf(bps, 0) || bps < 0 {
		bps = 0
	}
	if bps == f.demand {
		return
	}
	f.demand = bps
	if f.active {
		f.net.dirtyFlow(f)
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
	now := f.net.sched.Now()
	f.accrue(now)
	f.exp = exp
	f.expBase = exp.DeliveredBytes()
	f.promotedAt = now
	exp.SetRate(f.rate)
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
	now := f.net.sched.Now()
	f.accrue(now) // folds expander bytes, resets lastAccrual
	f.exp.Stop()
	f.exp = nil
}

// Promoted reports whether the flow currently drives a packet expander.
func (f *FluidFlow) Promoted() bool { return f.exp != nil }

// accrue folds delivered bits up to now into the running total: the
// expander's byte delta while promoted, rate × elapsed while fluid.
func (f *FluidFlow) accrue(now time.Duration) {
	if f.exp != nil {
		cur := f.exp.DeliveredBytes()
		f.accrued += float64(float64(cur-f.expBase) * 8)
		f.expBase = cur
	} else if f.active {
		f.accrued += float64(f.rate * (now - f.lastAccrual).Seconds())
	}
	f.lastAccrual = now
}

// DeliveredBits returns the flow's cumulative delivered traffic in bits
// up to the scheduler's current time.
func (f *FluidFlow) DeliveredBits() float64 {
	f.accrue(f.net.sched.Now())
	return f.accrued
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
