package openflow

import (
	"fmt"
	"sort"
	"testing"

	"netco/internal/packet"
	"netco/internal/sim"
)

// linearFlowTable reimplements the seed's flow table — a
// priority-ordered list scanned on every lookup — as the permanent
// baseline BenchmarkFlowTableLookup's classifier numbers are measured
// against, and as TestClassifierDifferential's oracle. It shares no
// code and no state with the tuple space.
type linearFlowTable struct {
	sched   *sim.Scheduler
	entries []*FlowEntry
}

// add appends e in lookup order (priority descending, ties in insertion
// order), or puts it in place of the entry with its priority and match.
func (t *linearFlowTable) add(e *FlowEntry) {
	e.installed = t.sched.Now()
	for i, old := range t.entries {
		if old.Priority == e.Priority && old.Match == e.Match {
			t.entries[i] = e
			return
		}
	}
	t.entries = append(t.entries, e)
	sort.SliceStable(t.entries, func(i, j int) bool {
		return t.entries[i].Priority > t.entries[j].Priority
	})
}

// find returns the first entry in lookup order that matches the packet,
// without counting it.
func (t *linearFlowTable) find(inPort uint16, pkt *packet.Packet) *FlowEntry {
	for _, e := range t.entries {
		if e.Match.Matches(inPort, pkt) {
			return e
		}
	}
	return nil
}

func (t *linearFlowTable) lookup(inPort uint16, pkt *packet.Packet) *FlowEntry {
	e := t.find(inPort, pkt)
	if e != nil {
		e.Packets++
		e.Bytes += uint64(pkt.WireLen())
	}
	return e
}

// macRule is the fat-tree case-study rule shape: per-host dl_dst match.
func macRule(i int) *FlowEntry {
	return &FlowEntry{
		Priority: 100,
		Match:    MatchAll().WithDlDst(packet.HostMAC(uint32(i))),
		Actions:  []Action{Output(uint16(i % 4))},
	}
}

func benchPackets(n int) []*packet.Packet {
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = packet.NewUDP(
			packet.Endpoint{MAC: packet.HostMAC(1000), IP: packet.HostIP(1000), Port: 4001},
			packet.Endpoint{MAC: packet.HostMAC(uint32(i)), IP: packet.HostIP(uint32(i)), Port: 5001},
			[]byte("payload"),
		)
	}
	return pkts
}

var tableSizes = []int{8, 64, 512}

// workingSet caps the concurrent-flow count at the table size so every
// benchmark packet has a matching rule.
func workingSet(n int) int {
	if n < 16 {
		return n
	}
	return 16
}

// BenchmarkFlowTableLookup measures the classifier in steady state: a
// small working set of flows over an n-entry table, each lookup stamped
// with a fresh IP ID the way a host stamps every send (replaying
// identical packets flatters any per-packet cache). Per-op cost must be flat across table sizes and
// allocation-free.
func BenchmarkFlowTableLookup(b *testing.B) {
	for _, n := range tableSizes {
		b.Run(fmt.Sprintf("%dentries", n), func(b *testing.B) {
			sched := sim.NewScheduler()
			tbl := NewFlowTable(sched)
			for i := 0; i < n; i++ {
				tbl.Add(macRule(i))
			}
			pkts := benchPackets(workingSet(n)) // concurrent flows, all matching rules
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pkts[i%len(pkts)]
				p.IP.ID++
				if tbl.Lookup(3, p) == nil {
					b.Fatal("unexpected miss")
				}
			}
		})
	}
}

// BenchmarkFlowTableLookupLinear is the seed baseline on the identical
// workload.
func BenchmarkFlowTableLookupLinear(b *testing.B) {
	for _, n := range tableSizes {
		b.Run(fmt.Sprintf("%dentries", n), func(b *testing.B) {
			sched := sim.NewScheduler()
			tbl := &linearFlowTable{sched: sched}
			for i := 0; i < n; i++ {
				tbl.add(macRule(i))
			}
			pkts := benchPackets(workingSet(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tbl.lookup(3, pkts[i%len(pkts)]) == nil {
					b.Fatal("unexpected miss")
				}
			}
		})
	}
}

// BenchmarkFlowTableInstall prices Add per rule: a fresh table takes n
// per-host dl_dst rules, then n replacements of them (the same priority
// and match). Its ns/rule must be flat across n.
func BenchmarkFlowTableInstall(b *testing.B) {
	for _, n := range []int{128, 1024, 8192} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			sched := sim.NewScheduler()
			rules := make([]*FlowEntry, 2*n)
			for i := range rules {
				rules[i] = macRule(i % n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tbl := NewFlowTable(sched)
				for _, e := range rules {
					tbl.Add(e)
				}
				if tbl.Len() != n {
					b.Fatalf("Len = %d after %d rules and their replacements, want %d", tbl.Len(), 2*n, n)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rules)), "ns/rule")
		})
	}
}

// TestFlowTableLookupZeroAlloc is the hard guarantee behind the
// benchmarks: steady-state lookups allocate nothing, match or miss.
func TestFlowTableLookupZeroAlloc(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	for i := 0; i < 64; i++ {
		tbl.Add(macRule(i))
	}
	pkts := benchPackets(8)

	if avg := testing.AllocsPerRun(200, func() {
		for _, p := range pkts {
			if tbl.Lookup(3, p) == nil {
				t.Fatal("miss")
			}
		}
	}); avg != 0 {
		t.Fatalf("matching Lookup allocates %.1f/run, want 0", avg)
	}

	if avg := testing.AllocsPerRun(200, func() {
		pkt := pkts[0]
		save := pkt.Eth.Dst
		pkt.Eth.Dst = packet.HostMAC(9999) // matches no rule
		if tbl.Lookup(3, pkt) != nil {
			t.Fatal("unexpected hit")
		}
		pkt.Eth.Dst = save
	}); avg != 0 {
		t.Fatalf("table-miss Lookup allocates %.1f/run, want 0", avg)
	}
}
