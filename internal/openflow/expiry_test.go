package openflow

import (
	"testing"
	"time"

	"netco/internal/packet"
	"netco/internal/sim"
)

// removedEvent is one OnRemoved callback as the expiry tests record it.
type removedEvent struct {
	cookie uint64
	reason RemovedReason
	at     time.Duration
}

func recordRemovals(sched *sim.Scheduler, tbl *FlowTable, got *[]removedEvent) {
	tbl.OnRemoved = func(e *FlowEntry, r RemovedReason) {
		*got = append(*got, removedEvent{e.Cookie, r, sched.Now()})
	}
}

// TestReAddSamePointerStillExpires: re-installing the very *FlowEntry
// that is already in the table (a controller refreshing its own rule
// object) restarts its timeouts like any other replacement. The old
// deadline heap lost the rule's node here and the rule lived forever.
func TestReAddSamePointerStillExpires(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	var got []removedEvent
	recordRemovals(sched, tbl, &got)

	e := &FlowEntry{Cookie: 7, Priority: 1, Match: MatchAll(), HardTimeout: time.Second}
	tbl.Add(e)
	sched.After(500*time.Millisecond, func() { tbl.Add(e) })
	sched.RunUntil(1400 * time.Millisecond)
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d at 1.4 s, want 1: the re-Add at 0.5 s restarts the hard timeout", tbl.Len())
	}
	sched.RunUntil(5 * time.Second)
	if tbl.Len() != 0 {
		t.Fatal("re-added entry never expired")
	}
	want := []removedEvent{{7, RemovedHardTimeout, 1500 * time.Millisecond}}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("removals = %+v, want %+v", got, want)
	}
	if sched.Live() != 0 {
		t.Fatalf("%d live events after the table emptied; the replaced timer leaked", sched.Live())
	}
}

// TestSameDeadlineExpiresInInstallOrder: entries sharing one deadline in
// one table each own a timer, and the scheduler's FIFO order among
// simultaneous events makes them leave in install order, once each.
func TestSameDeadlineExpiresInInstallOrder(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	var got []removedEvent
	recordRemovals(sched, tbl, &got)

	const k = 6
	for i := 0; i < k; i++ {
		tbl.Add(&FlowEntry{
			Cookie:      uint64(i),
			Priority:    uint16(k - i), // lookup order is the reverse of install order
			Match:       MatchAll().WithDlDst(packet.HostMAC(uint32(i))),
			HardTimeout: time.Second,
		})
	}
	sched.Run()
	if len(got) != k {
		t.Fatalf("removals = %+v, want %d", got, k)
	}
	for i, ev := range got {
		if want := (removedEvent{uint64(i), RemovedHardTimeout, time.Second}); ev != want {
			t.Fatalf("removal %d = %+v, want %+v", i, ev, want)
		}
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d after all timeouts, want 0", tbl.Len())
	}
}

// TestOnRemovedDeletesSameInstantSibling: a callback that deletes a
// sibling whose own timeout is due at the same instant wins the race —
// the sibling reports exactly one RemovedDelete and its cancelled timer
// never reports a timeout on top.
func TestOnRemovedDeletesSameInstantSibling(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	a := &FlowEntry{Cookie: 1, Priority: 1, Match: MatchAll().WithInPort(1), HardTimeout: time.Second}
	b := &FlowEntry{Cookie: 2, Priority: 1, Match: MatchAll().WithInPort(2), IdleTimeout: time.Second}
	var got []removedEvent
	tbl.OnRemoved = func(e *FlowEntry, r RemovedReason) {
		got = append(got, removedEvent{e.Cookie, r, sched.Now()})
		if e == a {
			tbl.Delete(b.Match, b.Priority, true, PortNone)
		}
	}
	tbl.Add(a)
	tbl.Add(b)
	sched.Run()
	want := []removedEvent{
		{1, RemovedHardTimeout, time.Second},
		{2, RemovedDelete, time.Second},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("removals = %+v, want %+v", got, want)
	}
	if tbl.Len() != 0 || sched.Live() != 0 {
		t.Fatalf("Len = %d, Live = %d after the run, want 0 and 0", tbl.Len(), sched.Live())
	}
}

// TestResetStopsArmedTimers: a cold restart cancels every entry's timer,
// so the scheduler holds exactly the live events it held before the
// rules were installed and no pre-crash rule ever reports FlowRemoved.
func TestResetStopsArmedTimers(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	var got []removedEvent
	recordRemovals(sched, tbl, &got)
	sched.After(time.Hour, func() {}) // someone else's event
	before := sched.Live()

	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll().WithInPort(1), HardTimeout: time.Second})
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll().WithInPort(2), IdleTimeout: 2 * time.Second})
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll().WithInPort(3), IdleTimeout: time.Second, HardTimeout: 3 * time.Second})
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll().WithInPort(4)}) // permanent: no timer
	if live := sched.Live(); live != before+3 {
		t.Fatalf("Live = %d with three timed rules installed, want %d", live, before+3)
	}

	tbl.Reset()
	if live := sched.Live(); live != before {
		t.Fatalf("Live = %d after Reset, want the pre-install %d", live, before)
	}
	sched.Run()
	if len(got) != 0 || tbl.Len() != 0 {
		t.Fatalf("after Reset: removals %+v, Len %d; want none and 0", got, tbl.Len())
	}
}
