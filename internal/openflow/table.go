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
}

// Duration returns how long the entry has been installed.
func (e *FlowEntry) Duration(now time.Duration) time.Duration { return now - e.installed }

// FlowTable is a priority-ordered OpenFlow 1.0 flow table. Its rules
// change only by Add and by Reset: there are no timeouts and no delete.
//
// Lookup is a tuple-space search over per-mask hash tables
// (classifier.go): it costs one hash per distinct wildcard mask
// regardless of how many rules are installed, and allocates nothing.
type FlowTable struct {
	sched *sim.Scheduler
	// entries stays sorted in lookup order (priority descending,
	// insertion sequence ascending) for Entries() and Add's replacement
	// scan — control-plane paths only; Lookup never walks it.
	entries []*FlowEntry
	seq     uint64
	ts      tupleSpace
	stats   metrics.ClassifierStats
}

// NewFlowTable returns an empty table bound to the scheduler's clock.
func NewFlowTable(sched *sim.Scheduler) *FlowTable {
	return &FlowTable{sched: sched}
}

// Len returns the number of installed entries.
func (t *FlowTable) Len() int { return len(t.entries) }

// Entries returns a snapshot of the installed entries in lookup order.
func (t *FlowTable) Entries() []*FlowEntry {
	out := make([]*FlowEntry, len(t.entries))
	copy(out, t.entries)
	return out
}

// Stats returns a snapshot of the classifier counters.
func (t *FlowTable) Stats() metrics.ClassifierStats {
	s := t.stats
	s.Masks = len(t.ts.groups)
	return s
}

// attach inserts an entry into every lookup structure. The entry's seq
// must already be assigned.
func (t *FlowTable) attach(e *FlowEntry) {
	i := sort.Search(len(t.entries), func(i int) bool { return !better(t.entries[i], e) })
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
	t.ts.add(e)
}

// detach removes an entry from every lookup structure.
func (t *FlowTable) detach(e *FlowEntry) {
	for i, cand := range t.entries {
		if cand == e {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			break
		}
	}
	t.ts.remove(e)
}

// Add installs an entry. An entry with an identical match and priority
// replaces the existing one, keeping its counters at zero (OFPFC_ADD
// semantics without OFPFF_CHECK_OVERLAP). The replacement inherits the
// old entry's position in lookup order, as the in-place replacement of
// the linear table did.
func (t *FlowTable) Add(e *FlowEntry) {
	e.installed = t.sched.Now()
	for _, old := range t.entries {
		if old.Priority == e.Priority && old.Match == e.Match {
			e.seq = old.seq
			t.detach(old)
			t.attach(e)
			return
		}
	}
	e.seq = t.seq
	t.seq++
	t.attach(e)
}

// Reset empties the table the way a cold restart does: every entry is
// discarded silently. The classifier counters survive; they are
// observations of the run, not switch state.
func (t *FlowTable) Reset() {
	t.entries = nil
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
