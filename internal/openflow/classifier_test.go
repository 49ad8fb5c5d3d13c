package openflow

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"netco/internal/packet"
	"netco/internal/sim"
)

// referenceLookup is the seed implementation the classifier must be
// indistinguishable from: first match in priority-then-insertion order
// over the table's own entry snapshot. It reads no classifier state, so
// any divergence is a classifier bug, not a reference bug.
func referenceLookup(t *FlowTable, inPort uint16, pkt *packet.Packet) *FlowEntry {
	for _, e := range t.Entries() {
		if e.Match.Matches(inPort, pkt) {
			return e
		}
	}
	return nil
}

// randMatch draws a match over deliberately tiny value pools so random
// rule sets overlap, tie, subsume and contradict each other constantly —
// the regimes where a classifier and a linear scan can disagree.
func randMatch(rng *sim.RNG) Match {
	m := MatchAll()
	if rng.Intn(3) == 0 {
		m = m.WithInPort(uint16(rng.Intn(3)))
	}
	if rng.Intn(3) == 0 {
		m = m.WithDlSrc(packet.HostMAC(uint32(rng.Intn(3))))
	}
	if rng.Intn(2) == 0 {
		m = m.WithDlDst(packet.HostMAC(uint32(rng.Intn(4))))
	}
	if rng.Intn(4) == 0 {
		// Include VLANNone (untagged), real VIDs, and a VID with garbage
		// in the upper bits that must be masked to 12 bits.
		vids := []uint16{VLANNone, 1, 2, 0x1002}
		m = m.WithDlVLAN(vids[rng.Intn(len(vids))])
	}
	if rng.Intn(6) == 0 {
		m = m.WithDlVLANPCP(uint8(rng.Intn(2)))
	}
	if rng.Intn(3) == 0 {
		types := []uint16{packet.EtherTypeIPv4, packet.EtherTypeARP}
		m = m.WithDlType(types[rng.Intn(len(types))])
	}
	if rng.Intn(4) == 0 {
		protos := []uint8{packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP}
		m = m.WithNwProto(protos[rng.Intn(len(protos))])
	}
	if rng.Intn(8) == 0 {
		m = m.WithNwTOS(uint8(rng.Intn(2) * 0x10))
	}
	if rng.Intn(3) == 0 {
		// CIDR prefixes of every flavour, including /32 and short ones
		// that alias several host addresses into one group key.
		lens := []int{32, 24, 30, 8, 16}
		m = m.WithNwSrc(packet.HostIP(uint32(rng.Intn(4))), lens[rng.Intn(len(lens))])
	}
	if rng.Intn(3) == 0 {
		lens := []int{32, 24, 12}
		m = m.WithNwDst(packet.HostIP(uint32(rng.Intn(4))), lens[rng.Intn(len(lens))])
	}
	if rng.Intn(5) == 0 {
		m = m.WithTpSrc(uint16(1000 + rng.Intn(3)))
	}
	if rng.Intn(5) == 0 {
		m = m.WithTpDst(uint16(2000 + rng.Intn(3)))
	}
	// Garbage in wildcarded fields must not affect classification.
	if m.Wildcards&WildcardDlSrc != 0 {
		m.DlSrc = packet.HostMAC(uint32(rng.Intn(1000)))
	}
	if m.Wildcards&WildcardDlVLAN != 0 {
		m.DlVLAN = uint16(rng.Uint64())
	}
	return m
}

// randPacket draws packets from the same tiny pools as randMatch:
// tagged/untagged, IPv4 (TCP/UDP/ICMP) and non-IP ARP frames.
func randPacket(rng *sim.RNG) *packet.Packet {
	src := packet.Endpoint{
		MAC:  packet.HostMAC(uint32(rng.Intn(3))),
		IP:   packet.HostIP(uint32(rng.Intn(4))),
		Port: uint16(1000 + rng.Intn(3)),
	}
	dst := packet.Endpoint{
		MAC:  packet.HostMAC(uint32(rng.Intn(4))),
		IP:   packet.HostIP(uint32(rng.Intn(4))),
		Port: uint16(2000 + rng.Intn(3)),
	}
	var pkt *packet.Packet
	switch rng.Intn(4) {
	case 0:
		pkt = packet.NewUDP(src, dst, []byte("payload"))
	case 1:
		pkt = packet.NewTCP(src, dst, 1, 2, packet.TCPAck, 64, nil)
	case 2:
		pkt = packet.NewICMPEcho(src, dst, packet.ICMPEchoRequest, uint16(rng.Intn(2)), 1, nil)
	default:
		pkt = &packet.Packet{Eth: packet.Ethernet{
			Dst: dst.MAC, Src: src.MAC, EtherType: packet.EtherTypeARP,
		}}
	}
	if pkt.IP != nil {
		pkt.IP.TOS = uint8(rng.Intn(2) * 0x10)
	}
	if rng.Intn(3) == 0 {
		pkt.Eth.VLAN = &packet.VLANTag{VID: uint16(1 + rng.Intn(2)), PCP: uint8(rng.Intn(2))}
	}
	return pkt
}

// TestClassifierDifferential is the two-tier classifier's acceptance
// gate: across randomized rule sets and packets — priority ties,
// overlapping masks, CIDR prefixes, VLANNone, garbage in wildcarded
// fields — Lookup must select the byte-identical entry (same pointer,
// same counters afterwards) as the reference linear scan, including
// straight after Add/Delete churn (generation invalidation) and on
// repeated lookups (microflow-cache hits).
func TestClassifierDifferential(t *testing.T) {
	rng := sim.NewRNG(42)
	trials := 0
	for round := 0; round < 250; round++ {
		sched := sim.NewScheduler()
		tbl := NewFlowTable(sched)
		for i := 0; i < 1+rng.Intn(40); i++ {
			tbl.Add(&FlowEntry{
				Priority: uint16(rng.Intn(6)), // dense priorities force ties
				Match:    randMatch(rng),
				Cookie:   uint64(i),
				Actions:  []Action{Output(uint16(i))},
			})
		}
		for p := 0; p < 50; p++ {
			// Mid-round churn: adds and deletes must invalidate the
			// microflow cache and reshape the tuple space coherently.
			switch rng.Intn(12) {
			case 0:
				tbl.Add(&FlowEntry{Priority: uint16(rng.Intn(6)), Match: randMatch(rng)})
			case 1:
				tbl.Delete(randMatch(rng), uint16(rng.Intn(6)), rng.Intn(2) == 0, PortNone)
			}
			pkt := randPacket(rng)
			inPort := uint16(rng.Intn(3))
			want := referenceLookup(tbl, inPort, pkt)
			var wantPackets uint64
			if want != nil {
				wantPackets = want.Packets + 1
			}
			got := tbl.Lookup(inPort, pkt)
			if got != want {
				t.Fatalf("round %d pkt %d: Lookup = %v, reference = %v\npacket %v in_port %d\ntable:\n%s",
					round, p, describe(got), describe(want), pkt, inPort, dumpTable(tbl))
			}
			if want != nil && want.Packets != wantPackets {
				t.Fatalf("round %d pkt %d: winner counters not updated (Packets=%d)", round, p, want.Packets)
			}
			// Second lookup of the identical packet exercises the
			// microflow-hit path; the winner must be unchanged.
			if again := tbl.Lookup(inPort, pkt); again != want {
				t.Fatalf("round %d pkt %d: cached lookup = %v, want %v", round, p, describe(again), describe(want))
			}
			trials++
		}
	}
	if trials < 10000 {
		t.Fatalf("only %d differential trials, want >= 10000", trials)
	}
}

func describe(e *FlowEntry) string {
	if e == nil {
		return "<miss>"
	}
	return fmt.Sprintf("{prio %d cookie %d match %s}", e.Priority, e.Cookie, e.Match)
}

func dumpTable(t *FlowTable) string {
	out := ""
	for _, e := range t.Entries() {
		out += "  " + describe(e) + "\n"
	}
	return out
}

// TestClassifierStatsAccounting pins the stats plumbing: every lookup is
// counted once, probes count the mask groups actually hashed (the search
// stops once the best match outranks every remaining group), and a miss
// probes every group.
func TestClassifierStatsAccounting(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll().WithDlDst(packet.HostMAC(2))})
	tbl.Add(&FlowEntry{Priority: 2, Match: MatchAll().WithInPort(0).WithDlDst(packet.HostMAC(2))})

	pkt := udpPkt()
	for i := 0; i < 3; i++ {
		if e := tbl.Lookup(0, pkt); e == nil || e.Priority != 2 {
			t.Fatalf("Lookup = %v, want the priority-2 rule", describe(e))
		}
	}
	s := tbl.Stats()
	if s.Lookups != 3 || s.MaskProbes != 3 || s.Misses != 0 {
		t.Fatalf("stats after 3 hits = %+v, want 3 lookups / 3 probes (early exit after the best group) / 0 misses", s)
	}
	if s.Masks != 2 {
		t.Fatalf("Masks = %d, want 2 distinct wildcard masks", s.Masks)
	}

	// A packet no rule matches probes both groups and counts one miss.
	other := udpPkt()
	other.Eth.Dst = packet.HostMAC(9)
	if e := tbl.Lookup(0, other); e != nil {
		t.Fatalf("Lookup = %v, want miss", describe(e))
	}
	s = tbl.Stats()
	if s.Lookups != 4 || s.MaskProbes != 5 || s.Misses != 1 {
		t.Fatalf("stats after a miss = %+v, want 4 lookups / 5 probes / 1 miss", s)
	}

	// A mutation takes effect on the very next lookup, even for a packet
	// just looked up: nothing between the table and the search can go stale.
	tbl.Add(&FlowEntry{Priority: 9, Match: MatchAll().WithInPort(0)})
	if e := tbl.Lookup(0, pkt); e == nil || e.Priority != 9 {
		t.Fatalf("Lookup after Add = %v, want the new priority-9 rule", describe(e))
	}
	if s = tbl.Stats(); s.Masks != 3 {
		t.Fatalf("Masks = %d after adding a third mask, want 3", s.Masks)
	}
}

// TestFlowTableReentrantOnRemoved is the regression for the compaction
// hazard: an OnRemoved callback that immediately re-installs rules (a
// controller reacting to FlowRemoved) must not corrupt an in-progress
// Delete or expiry pass.
func TestFlowTableReentrantOnRemoved(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	reinstalled := 0
	tbl.OnRemoved = func(e *FlowEntry, reason RemovedReason) {
		// React to every removal by installing a replacement rule at a
		// recognisable priority — while the removal pass is running.
		reinstalled++
		tbl.Add(&FlowEntry{Priority: 1000 + e.Priority, Match: e.Match, Actions: e.Actions})
	}
	for i := 0; i < 8; i++ {
		tbl.Add(&FlowEntry{
			Priority: uint16(i),
			Match:    MatchAll().WithDlDst(packet.HostMAC(uint32(i))),
			Actions:  []Action{Output(uint16(i))},
		})
	}
	if n := tbl.Delete(MatchAll(), 0, false, PortNone); n != 8 {
		t.Fatalf("Delete removed %d, want 8", n)
	}
	if reinstalled != 8 {
		t.Fatalf("OnRemoved fired %d times, want 8", reinstalled)
	}
	if tbl.Len() != 8 {
		t.Fatalf("Len = %d after reinstalling callbacks, want 8", tbl.Len())
	}
	for i := 0; i < 8; i++ {
		pkt := udpPkt()
		pkt.Eth.Dst = packet.HostMAC(uint32(i))
		e := tbl.Lookup(0, pkt)
		if e == nil || e.Priority != uint16(1000+i) {
			t.Fatalf("entry %d: Lookup = %v, want reinstalled priority %d", i, describe(e), 1000+i)
		}
	}

	// Same hazard via the expiry path: expiring entries while the
	// callback installs fresh ones.
	sched2 := sim.NewScheduler()
	tbl2 := NewFlowTable(sched2)
	installed := 0
	tbl2.OnRemoved = func(e *FlowEntry, reason RemovedReason) {
		installed++
		tbl2.Add(&FlowEntry{Priority: 500, Match: e.Match})
	}
	for i := 0; i < 4; i++ {
		tbl2.Add(&FlowEntry{
			Priority:    uint16(i),
			Match:       MatchAll().WithDlDst(packet.HostMAC(uint32(i))),
			HardTimeout: time.Second,
		})
	}
	sched2.RunUntil(2 * time.Second)
	if installed != 4 {
		t.Fatalf("expiry callbacks = %d, want 4", installed)
	}
	if tbl2.Len() != 4 {
		t.Fatalf("Len = %d after reentrant expiry, want 4 reinstalled", tbl2.Len())
	}
	for _, e := range tbl2.Entries() {
		if e.Priority != 500 {
			t.Fatalf("surviving entry %s has priority %d, want 500", e.Match, e.Priority)
		}
	}
}

// TestTimerDrivenExpiryOrdering verifies FlowRemoved messages fire at
// the right virtual times and in deadline order without any lookups or
// sweeps driving the table.
func TestTimerDrivenExpiryOrdering(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	type ev struct {
		cookie uint64
		reason RemovedReason
		at     time.Duration
	}
	var got []ev
	tbl.OnRemoved = func(e *FlowEntry, r RemovedReason) {
		got = append(got, ev{e.Cookie, r, sched.Now()})
	}

	tbl.Add(&FlowEntry{Cookie: 1, Priority: 1, Match: MatchAll().WithInPort(1), HardTimeout: 3 * time.Second})
	tbl.Add(&FlowEntry{Cookie: 2, Priority: 1, Match: MatchAll().WithInPort(2), IdleTimeout: time.Second})
	tbl.Add(&FlowEntry{Cookie: 3, Priority: 1, Match: MatchAll().WithInPort(3), IdleTimeout: 4 * time.Second, HardTimeout: 2 * time.Second})

	// Keep cookie 2 alive with traffic at 700 ms: its idle deadline
	// slides to 1.7 s, past nothing else.
	pkt := udpPkt()
	sched.After(700*time.Millisecond, func() { tbl.Lookup(2, pkt) })

	sched.Run()
	want := []ev{
		{2, RemovedIdleTimeout, 1700 * time.Millisecond},
		{3, RemovedHardTimeout, 2 * time.Second},
		{1, RemovedHardTimeout, 3 * time.Second},
	}
	if len(got) != len(want) {
		t.Fatalf("removals = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("removal %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d after all timeouts, want 0", tbl.Len())
	}
	if sched.Now() != 3*time.Second {
		t.Fatalf("queue drained at %v; expiry timers must not linger past the last deadline", sched.Now())
	}
}

// TestExpiryTimerReleasedOnDelete: deleting every timed entry must leave
// no live timer events keeping the simulation queue busy.
func TestExpiryTimerReleasedOnDelete(t *testing.T) {
	sched := sim.NewScheduler()
	tbl := NewFlowTable(sched)
	tbl.Add(&FlowEntry{Priority: 1, Match: MatchAll(), HardTimeout: time.Hour})
	tbl.Delete(MatchAll(), 0, false, PortNone)
	sched.Run()
	if sched.Now() != 0 {
		t.Fatalf("clock advanced to %v; orphaned expiry timer fired", sched.Now())
	}
	if tbl.Len() != 0 {
		t.Fatal("table not empty")
	}
}

// TestFlowKeyIsPlainMemory: flowKey has no implicit padding and no blank
// field, so Go hashes and compares the tuple-space map key as one block
// of memory (one memhash, one memequal per probe) instead of field by
// field.
func TestFlowKeyIsPlainMemory(t *testing.T) {
	typ := reflect.TypeOf(flowKey{})
	var sum uintptr
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "_" {
			t.Fatalf("flowKey has a blank field at offset %d: blank fields are skipped by ==, so the key is compared field by field", f.Offset)
		}
		sum += f.Type.Size()
	}
	if got := unsafe.Sizeof(flowKey{}); got != sum {
		t.Fatalf("flowKey is %d bytes, its fields %d: %d bytes of implicit padding", got, sum, got-sum)
	}
}
