package openflow

import (
	"slices"
	"testing"
	"testing/quick"

	"netco/internal/packet"
	"netco/internal/sim"
)

func TestFlowTablePriorityOrder(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	tbl.Add(&FlowEntry{Priority: 10, Match: MatchAll(), Actions: []Action{Output(1)}})
	tbl.Add(&FlowEntry{Priority: 100, Match: MatchAll().WithDlDst(packet.HostMAC(2)), Actions: []Action{Output(2)}})

	e := tbl.Lookup(0, udpPkt())
	if e == nil || e.Priority != 100 {
		t.Fatalf("Lookup chose %+v, want priority 100", e)
	}

	// A packet not matching the specific rule falls to the catch-all.
	other := udpPkt()
	other.Eth.Dst = packet.HostMAC(9)
	e = tbl.Lookup(0, other)
	if e == nil || e.Priority != 10 {
		t.Fatalf("Lookup chose %+v, want priority 10", e)
	}
}

func TestFlowTableTieBreakInsertionOrder(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	tbl.Add(&FlowEntry{Priority: 5, Match: MatchAll().WithInPort(0), Actions: []Action{Output(1)}})
	tbl.Add(&FlowEntry{Priority: 5, Match: MatchAll(), Actions: []Action{Output(2)}})
	e := tbl.Lookup(0, udpPkt())
	if e.Actions[0].Port != 1 {
		t.Fatalf("tie broken to %v, want first-inserted entry", e.Actions[0])
	}
}

func TestFlowTableMiss(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll().WithDlType(packet.EtherTypeARP)})
	if e := tbl.Lookup(0, udpPkt()); e != nil {
		t.Fatalf("Lookup = %+v, want miss", e)
	}
	if got := tbl.Stats().Misses; got != 1 {
		t.Fatalf("Misses = %d, want 1", got)
	}
}

func TestFlowTableCounters(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll()})
	pkt := udpPkt()
	for i := 0; i < 3; i++ {
		tbl.Lookup(0, pkt)
	}
	e := tbl.Entries()[0]
	if e.Packets != 3 {
		t.Errorf("Packets = %d, want 3", e.Packets)
	}
	if e.Bytes != uint64(3*pkt.WireLen()) {
		t.Errorf("Bytes = %d, want %d", e.Bytes, 3*pkt.WireLen())
	}
}

func TestFlowTableReplaceSamePriorityAndMatch(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	m := MatchAll().WithDlDst(packet.HostMAC(2))
	tbl.Add(&FlowEntry{Priority: 7, Match: m, Actions: []Action{Output(1)}})
	tbl.Add(&FlowEntry{Priority: 7, Match: m, Actions: []Action{Output(9)}})
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (replace semantics)", tbl.Len())
	}
	if e := tbl.Lookup(0, udpPkt()); e.Actions[0].Port != 9 {
		t.Fatalf("entry not replaced: %v", e.Actions[0])
	}
}

// TestFlowTableTupleHoldsSeveralPriorities: rules that share mask and
// masked tuple share one bucket and keep lookup order in it when one of
// them, the best included, is replaced.
func TestFlowTableTupleHoldsSeveralPriorities(t *testing.T) {
	tbl := NewFlowTable(sim.NewScheduler())
	rule := func(prio uint16) *FlowEntry {
		e := &FlowEntry{Priority: prio, Match: MatchAll()}
		tbl.Add(e)
		return e
	}
	p3, p7, _ := rule(3), rule(7), rule(5)
	p5 := rule(5)
	if e := tbl.Lookup(0, udpPkt()); e != p7 {
		t.Fatalf("Lookup = %v, want the priority-7 rule", describe(e))
	}
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (the second priority-5 rule replaces the first)", tbl.Len())
	}
	if got, want := tbl.Entries(), []*FlowEntry{p7, p5, p3}; !slices.Equal(got, want) {
		t.Fatalf("Entries =\n%swant\n%s", dumpEntries(got), dumpEntries(want))
	}
	p7b := rule(7)
	if e := tbl.Lookup(0, udpPkt()); e != p7b {
		t.Fatalf("Lookup after replacing the best rule = %v, want its replacement", describe(e))
	}
	if got, want := tbl.Entries(), []*FlowEntry{p7b, p5, p3}; !slices.Equal(got, want) {
		t.Fatalf("Entries after replacing the best rule =\n%swant\n%s", dumpEntries(got), dumpEntries(want))
	}
}

// Property: the entry returned by Lookup always has priority >= every other
// matching entry in the table.
func TestLookupPriorityInvariant(t *testing.T) {
	f := func(prios []uint16) bool {
		sched := sim.NewScheduler()
		tbl := NewFlowTable(sched)
		for i, p := range prios {
			tbl.Add(&FlowEntry{Priority: p, Match: MatchAll(), Cookie: uint64(i)})
		}
		if len(prios) == 0 {
			return tbl.Lookup(0, udpPkt()) == nil
		}
		got := tbl.Lookup(0, udpPkt())
		for _, p := range prios {
			if got.Priority < p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
