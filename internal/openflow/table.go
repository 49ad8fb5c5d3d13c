package openflow

import (
	"sort"
	"time"

	"netco/internal/metrics"
	"netco/internal/packet"
	"netco/internal/sim"
)

// FlowEntry is one rule in a flow table.
type FlowEntry struct {
	Priority uint16
	Match    Match
	Actions  []Action
	Cookie   uint64

	// Counters.
	Packets uint64
	Bytes   uint64

	installed time.Duration
	seq       uint64
	next      *FlowEntry // the next-best entry of its tuple-space bucket
}

// Duration returns how long the entry has been installed.
func (e *FlowEntry) Duration(now time.Duration) time.Duration { return now - e.installed }

// FlowTable is a priority-ordered OpenFlow 1.0 flow table. Its rules
// change only by Add and by Reset: there are no timeouts and no delete.
// An entry belongs to the one table it was added to.
//
// The tuple space (classifier.go) is the table's only structure. Lookup
// costs one hash per distinct wildcard mask regardless of how many rules
// are installed, and allocates nothing; Add costs a scan of the masks,
// one hash and a walk of the entry's own bucket; Entries sorts on demand.
type FlowTable struct {
	sched *sim.Scheduler
	n     int
	seq   uint64
	ts    tupleSpace
	stats metrics.ClassifierStats
}

// NewFlowTable returns an empty table bound to the scheduler's clock.
func NewFlowTable(sched *sim.Scheduler) *FlowTable {
	return &FlowTable{sched: sched}
}

// Len returns the number of installed entries.
func (t *FlowTable) Len() int { return t.n }

// Entries returns a snapshot of the installed entries in lookup order
// (priority descending, then insertion order). It gathers and sorts them
// on every call: a control-plane read, never on the packet path.
func (t *FlowTable) Entries() []*FlowEntry {
	out := t.ts.entries(make([]*FlowEntry, 0, t.n))
	sort.Slice(out, func(i, j int) bool { return better(out[i], out[j]) })
	return out
}

// Stats returns a snapshot of the classifier counters.
func (t *FlowTable) Stats() metrics.ClassifierStats {
	s := t.stats
	s.Masks = len(t.ts.groups)
	return s
}

// Add installs an entry. An entry with an identical match and priority
// replaces the existing one, keeping its counters at zero (OFPFC_ADD
// semantics without OFPFF_CHECK_OVERLAP). The replacement inherits the
// old entry's position in lookup order, as the in-place replacement of
// the linear table did.
func (t *FlowTable) Add(e *FlowEntry) {
	e.installed = t.sched.Now()
	if !t.ts.add(e, t.seq) {
		t.seq++
		t.n++
	}
}

// Reset empties the table the way a cold restart does: every entry is
// discarded silently. The classifier counters survive; they are
// observations of the run, not switch state.
func (t *FlowTable) Reset() {
	t.n = 0
	t.ts = tupleSpace{}
}

// Lookup returns the highest-priority entry matching the packet, updating
// its counters. It returns nil on a table miss.
func (t *FlowTable) Lookup(inPort uint16, pkt *packet.Packet) *FlowEntry {
	t.stats.Lookups++
	e := t.ts.search(inPort, pkt, &t.stats.MaskProbes)
	if e == nil {
		t.stats.Misses++
		return nil
	}
	e.Packets++
	e.Bytes += uint64(pkt.WireLen())
	return e
}
