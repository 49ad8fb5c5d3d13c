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

	// IdleTimeout evicts the entry after this long without a matching
	// packet; HardTimeout evicts it unconditionally. Zero disables.
	IdleTimeout time.Duration
	HardTimeout time.Duration

	// Counters.
	Packets uint64
	Bytes   uint64

	installed time.Duration
	lastUsed  time.Duration
	seq       uint64
	timer     sim.Timer // pending expiry check while installed (expiry.go)
}

// Duration returns how long the entry has been installed.
func (e *FlowEntry) Duration(now time.Duration) time.Duration { return now - e.installed }

// RemovedReason says why a flow entry left the table (ofp_flow_removed_reason).
type RemovedReason uint8

// Flow removal reasons.
const (
	RemovedIdleTimeout RemovedReason = 0
	RemovedHardTimeout RemovedReason = 1
	RemovedDelete      RemovedReason = 2
)

// FlowTable is a priority-ordered OpenFlow 1.0 flow table with
// timer-driven timeout expiry.
//
// Lookup is a tuple-space search over per-mask hash tables
// (classifier.go): it costs one hash per distinct wildcard mask
// regardless of how many rules are installed, and allocates nothing.
// Idle/hard timeouts are scheduler timers, one per entry that has a
// timeout (expiry.go), so FlowRemoved fires at the exact virtual time a
// timeout elapses, not at the next packet.
type FlowTable struct {
	sched *sim.Scheduler
	// entries stays sorted in lookup order (priority descending,
	// insertion sequence ascending) for Entries() and Delete subsumption
	// scans — control-plane paths only; Lookup never walks it.
	entries []*FlowEntry
	seq     uint64
	ts      tupleSpace
	stats   metrics.ClassifierStats

	// OnRemoved, when non-nil, is invoked for every entry leaving the
	// table (the hook the switch uses to emit FlowRemoved messages).
	// Callbacks fire only after the table has been fully updated, so a
	// callback may safely re-install or delete rules.
	OnRemoved func(e *FlowEntry, reason RemovedReason)
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

// attach inserts an entry into every lookup structure and arms its
// expiry timer. The entry's seq must already be assigned.
func (t *FlowTable) attach(e *FlowEntry) {
	i := sort.Search(len(t.entries), func(i int) bool { return !better(t.entries[i], e) })
	t.entries = append(t.entries, nil)
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = e
	t.ts.add(e)
	t.arm(e)
}

// detach removes an entry from every lookup structure and cancels its
// expiry timer.
func (t *FlowTable) detach(e *FlowEntry) {
	for i, cand := range t.entries {
		if cand == e {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			break
		}
	}
	t.ts.remove(e)
	e.timer.Stop()
}

// Add installs an entry. An entry with an identical match and priority
// replaces the existing one, keeping its counters at zero (OFPFC_ADD
// semantics without OFPFF_CHECK_OVERLAP). The replacement inherits the
// old entry's position in lookup order, as the in-place replacement of
// the linear table did.
func (t *FlowTable) Add(e *FlowEntry) {
	now := t.sched.Now()
	e.installed = now
	e.lastUsed = now
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
// discarded silently — no OnRemoved callbacks, because a crashed switch
// cannot report FlowRemoved for state it just lost — and every armed
// expiry timer is cancelled. The classifier counters survive; they are
// observations of the run, not switch state.
func (t *FlowTable) Reset() {
	for _, e := range t.entries {
		e.timer.Stop()
	}
	t.entries = nil
	t.ts = tupleSpace{}
}

// Delete removes entries. With strict set, only an exact match+priority
// entry is removed; otherwise every entry whose match is subsumed by m is
// removed (OFPFC_DELETE semantics). outPort, when not PortNone, restricts
// deletion to entries with an output action to that port.
func (t *FlowTable) Delete(m Match, priority uint16, strict bool, outPort uint16) int {
	var doomed []*FlowEntry
	for _, e := range t.entries {
		del := false
		if strict {
			del = e.Priority == priority && e.Match == m
		} else {
			del = m.Subsumes(e.Match)
		}
		if del && outPort != PortNone {
			del = false
			for _, a := range e.Actions {
				if a.Type == ActionOutput && a.Port == outPort {
					del = true
					break
				}
			}
		}
		if del {
			doomed = append(doomed, e)
		}
	}
	// Callbacks fire only once the table is consistent again.
	for _, e := range doomed {
		t.detach(e)
	}
	if t.OnRemoved != nil {
		for _, e := range doomed {
			t.OnRemoved(e, RemovedDelete)
		}
	}
	return len(doomed)
}

// Lookup returns the highest-priority entry matching the packet, updating
// its counters and idle timer. It returns nil on a table miss. Lookup
// does no expiry work: timeouts are handled by scheduler timers.
func (t *FlowTable) Lookup(inPort uint16, pkt *packet.Packet) *FlowEntry {
	t.stats.Lookups++
	e := t.ts.search(inPort, pkt, &t.stats.MaskProbes)
	if e == nil {
		t.stats.Misses++
		return nil
	}
	e.Packets++
	e.Bytes += uint64(pkt.WireLen())
	e.lastUsed = t.sched.Now()
	return e
}
