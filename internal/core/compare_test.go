package core

import (
	"testing"
	"time"

	"netco/internal/packet"
	"netco/internal/sim"
)

// newQuotaNode builds a bare CompareNode (no links wired — quota
// accounting happens before any frame leaves the node).
func newQuotaNode(sched *sim.Scheduler, isolation bool) *CompareNode {
	return NewCompareNode(sched, CompareNodeConfig{
		Name:              "compare",
		Engine:            Config{K: 3, HoldTimeout: 20 * time.Millisecond},
		PerCopyCost:       time.Microsecond,
		QueueLimit:        30,
		NoBufferIsolation: !isolation,
	})
}

// TestCompareNodeQuotaIsolation pins down the per-router ingest quota and
// its increment-after-accept accounting: flooding a single router port
// must be cut off at exactly QueueLimit/K copies in flight — the quota is
// checked and the backlog incremented in Receive, before the scheduler
// runs, so a burst arriving "simultaneously" (no intervening scheduler
// steps) cannot overshoot. The decrement runs inside the deferred serve;
// because Submit only enqueues and never runs synchronously, the counter
// exactly tracks copies in flight.
func TestCompareNodeQuotaIsolation(t *testing.T) {
	sched := sim.NewScheduler()
	c := newQuotaNode(sched, true)
	defer c.Close()

	const quota = 30 / 3 // QueueLimit / K
	frames := benchFrames(quota+5, 64)

	// Flood router 0 on edge 0 without stepping the scheduler: every copy
	// is "in flight" until the proc serves it.
	for _, w := range frames {
		pkt, err := packet.Unmarshal(w)
		if err != nil {
			t.Fatal(err)
		}
		c.Receive(0, encapPacketInInto(&packet.Packet{}, 0, pkt.Marshal()))
	}
	st := c.Stats()
	if got, want := st.QuotaDrops, uint64(5); got != want {
		t.Fatalf("QuotaDrops = %d, want %d (quota %d of %d copies)", got, want, quota, quota+5)
	}
	if st.IngestDrops != 0 {
		t.Fatalf("IngestDrops = %d; quota must reject before the shared queue fills", st.IngestDrops)
	}

	// Isolation: a different router port still has its own full quota even
	// while router 0 is saturated.
	for i := 0; i < quota; i++ {
		pkt, err := packet.Unmarshal(frames[i])
		if err != nil {
			t.Fatal(err)
		}
		c.Receive(0, encapPacketInInto(&packet.Packet{}, 1, pkt.Marshal()))
	}
	if got := c.Stats().QuotaDrops; got != 5 {
		t.Fatalf("QuotaDrops = %d after honest port burst, want still 5", got)
	}

	// Drain: serving a copy decrements the backlog, so after the scheduler
	// runs the same port accepts a fresh burst without a single drop. (Run
	// to a fixed horizon — the node's expiry sweep re-arms forever.)
	sched.RunUntil(10 * time.Millisecond)
	before := c.Stats().QuotaDrops
	for i := 0; i < quota; i++ {
		pkt, err := packet.Unmarshal(frames[i])
		if err != nil {
			t.Fatal(err)
		}
		c.Receive(0, encapPacketInInto(&packet.Packet{}, 0, pkt.Marshal()))
	}
	if got := c.Stats().QuotaDrops; got != before {
		t.Fatalf("QuotaDrops rose %d -> %d after drain; backlog not decremented on serve", before, got)
	}
}

// TestCompareNodeQuotaAblation: with buffer isolation disabled (the §IV
// resource-attack ablation), one router can occupy the whole ingest queue
// and further copies hit the shared limit instead of a per-port quota.
func TestCompareNodeQuotaAblation(t *testing.T) {
	sched := sim.NewScheduler()
	c := newQuotaNode(sched, false)
	defer c.Close()

	frames := benchFrames(35, 64)
	for _, w := range frames {
		pkt, err := packet.Unmarshal(w)
		if err != nil {
			t.Fatal(err)
		}
		c.Receive(0, encapPacketInInto(&packet.Packet{}, 0, pkt.Marshal()))
	}
	st := c.Stats()
	if st.QuotaDrops != 0 {
		t.Fatalf("QuotaDrops = %d with isolation off, want 0", st.QuotaDrops)
	}
	if got, want := st.IngestDrops, uint64(5); got != want {
		t.Fatalf("IngestDrops = %d, want %d (queue limit 30 of 35 copies)", got, want)
	}
}
