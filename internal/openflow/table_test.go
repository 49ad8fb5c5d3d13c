package openflow

import (
	"math"
	"testing"
	"testing/quick"
	"time"

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

func TestFlowTableDeleteStrict(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	m := MatchAll().WithDlDst(packet.HostMAC(2))
	tbl.Add(&FlowEntry{Priority: 7, Match: m})
	tbl.Add(&FlowEntry{Priority: 8, Match: m})
	if n := tbl.Delete(m, 7, true, PortNone); n != 1 {
		t.Fatalf("strict delete removed %d, want 1", n)
	}
	if tbl.Len() != 1 || tbl.Entries()[0].Priority != 8 {
		t.Fatal("wrong entry deleted")
	}
}

func TestFlowTableDeleteNonStrictSubsumption(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll().WithDlDst(packet.HostMAC(2)).WithInPort(1)})
	tbl.Add(&FlowEntry{Priority: 2, Match: MatchAll().WithDlDst(packet.HostMAC(2))})
	tbl.Add(&FlowEntry{Priority: 3, Match: MatchAll().WithDlDst(packet.HostMAC(3))})
	n := tbl.Delete(MatchAll().WithDlDst(packet.HostMAC(2)), 0, false, PortNone)
	if n != 2 {
		t.Fatalf("non-strict delete removed %d, want 2", n)
	}
	if tbl.Len() != 1 || tbl.Entries()[0].Match.DlDst != packet.HostMAC(3) {
		t.Fatal("wrong entries deleted")
	}
}

func TestFlowTableDeleteByOutPort(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll().WithInPort(1), Actions: []Action{Output(5)}})
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll().WithInPort(2), Actions: []Action{Output(6)}})
	n := tbl.Delete(MatchAll(), 0, false, 5)
	if n != 1 {
		t.Fatalf("out_port-filtered delete removed %d, want 1", n)
	}
	if tbl.Entries()[0].Actions[0].Port != 6 {
		t.Fatal("wrong entry deleted")
	}
}

func TestFlowTableIdleTimeout(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	var removed []RemovedReason
	tbl.OnRemoved = func(e *FlowEntry, r RemovedReason) { removed = append(removed, r) }
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll(), IdleTimeout: time.Second})

	// Traffic at 600 ms keeps the entry alive past 1 s.
	sched.After(600*time.Millisecond, func() { tbl.Lookup(0, udpPkt()) })
	sched.RunUntil(1200 * time.Millisecond)
	if tbl.Len() != 1 {
		t.Fatal("entry expired despite traffic refreshing the idle timer")
	}

	// Expiry is timer-driven: the entry leaves at exactly lastUsed +
	// IdleTimeout = 1.6 s, with no Lookup needed.
	sched.RunUntil(1599 * time.Millisecond)
	if tbl.Len() != 1 {
		t.Fatal("entry expired before its refreshed idle deadline")
	}
	sched.RunUntil(1600 * time.Millisecond)
	if tbl.Len() != 0 {
		t.Fatal("idle entry did not expire at its deadline")
	}
	if len(removed) != 1 || removed[0] != RemovedIdleTimeout {
		t.Fatalf("removal callbacks %v, want [idle]", removed)
	}
}

func TestFlowTableHardTimeout(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	var reasons []RemovedReason
	tbl.OnRemoved = func(e *FlowEntry, r RemovedReason) { reasons = append(reasons, r) }
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll(), HardTimeout: time.Second})

	// Constant traffic cannot save it.
	for i := time.Duration(0); i < 2000; i += 100 {
		sched.At(i*time.Millisecond, func() { tbl.Lookup(0, udpPkt()) })
	}
	sched.Run()
	if tbl.Len() != 0 {
		t.Fatal("hard-timeout entry survived")
	}
	if len(reasons) != 1 || reasons[0] != RemovedHardTimeout {
		t.Fatalf("removal reasons %v, want [hard]", reasons)
	}
}

// TestFlowTableTimeoutSaturates: a timeout too long to add to the install
// or last-use time is "never", not a deadline that wrapped negative and
// expired the entry at once.
func TestFlowTableTimeoutSaturates(t *testing.T) {
	for _, e := range []*FlowEntry{
		{Priority: 1, Match: MatchAll(), HardTimeout: math.MaxInt64},
		{Priority: 2, Match: MatchAll(), IdleTimeout: math.MaxInt64},
	} {
		sched := sim.NewScheduler()
		tbl := NewFlowTable(sched)
		var reasons []RemovedReason
		tbl.OnRemoved = func(_ *FlowEntry, r RemovedReason) { reasons = append(reasons, r) }
		sched.RunFor(time.Millisecond)
		tbl.Add(e)
		sched.RunFor(time.Second)
		if tbl.Len() != 1 || len(reasons) != 0 {
			t.Fatalf("hard %v idle %v installed at 1ms: %d entries left, removed %v; want it kept",
				e.HardTimeout, e.IdleTimeout, tbl.Len(), reasons)
		}
	}
}

func TestFlowTableDeleteCallback(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	got := 0
	tbl.OnRemoved = func(e *FlowEntry, r RemovedReason) {
		if r != RemovedDelete {
			t.Errorf("reason = %v, want delete", r)
		}
		got++
	}
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll()})
	tbl.Delete(MatchAll(), 0, false, PortNone)
	if got != 1 {
		t.Fatalf("callbacks = %d, want 1", got)
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
