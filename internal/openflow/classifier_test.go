package openflow

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"netco/internal/packet"
	"netco/internal/sim"
)

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
		pkt = new(packet.Pool).TCP(src, dst, 1, 2, packet.TCPAck, 64, 0)
	case 2:
		pkt = packet.NewICMPEcho(src, dst, packet.ICMPEcho, uint16(rng.Intn(2)), 1, nil)
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
// same counters afterwards) as the seed's linear table fed the same
// rules, including straight after Add churn — new rules, and
// replacements that swap a rule's successor into its place — and on
// repeated lookups. Entries must list the linear table's rules, pointer
// for pointer and in its order.
func TestClassifierDifferential(t *testing.T) {
	rng := sim.NewRNG(42)
	trials := 0
	for round := 0; round < 250; round++ {
		sched := sim.NewScheduler()
		tbl := NewFlowTable(sched)
		ref := &linearFlowTable{sched: sched}
		add := func(e *FlowEntry) {
			tbl.Add(e)
			ref.add(e)
		}
		for i := 0; i < 1+rng.Intn(40); i++ {
			add(&FlowEntry{
				Priority: uint16(rng.Intn(6)), // dense priorities force ties
				Match:    randMatch(rng),
				Cookie:   uint64(i),
				Actions:  []Action{Output(uint16(i))},
			})
		}
		for p := 0; p < 50; p++ {
			// Mid-round churn: a new rule, or a re-Add of an installed
			// (priority, match), which replaces the old entry, must
			// reshape the tuple space coherently.
			switch rng.Intn(12) {
			case 0:
				add(&FlowEntry{Priority: uint16(rng.Intn(6)), Match: randMatch(rng)})
			case 1:
				old := ref.entries[rng.Intn(len(ref.entries))]
				add(&FlowEntry{Priority: old.Priority, Match: old.Match, Cookie: 1000 + uint64(p)})
			}
			if got := tbl.Entries(); !slices.Equal(got, ref.entries) || tbl.Len() != len(ref.entries) {
				t.Fatalf("round %d pkt %d: Entries (Len %d) differ from the linear table's\ntable:\n%s\nlinear:\n%s",
					round, p, tbl.Len(), dumpEntries(got), dumpEntries(ref.entries))
			}
			pkt := randPacket(rng)
			inPort := uint16(rng.Intn(3))
			want := ref.find(inPort, pkt)
			var wantPackets uint64
			if want != nil {
				wantPackets = want.Packets + 1
			}
			got := tbl.Lookup(inPort, pkt)
			if got != want {
				t.Fatalf("round %d pkt %d: Lookup = %v, reference = %v\npacket %v in_port %d\ntable:\n%s",
					round, p, describe(got), describe(want), pkt, inPort, dumpEntries(ref.entries))
			}
			if want != nil && want.Packets != wantPackets {
				t.Fatalf("round %d pkt %d: winner counters not updated (Packets=%d)", round, p, want.Packets)
			}
			// A lookup changes counters only: the identical packet again
			// finds the same winner.
			if again := tbl.Lookup(inPort, pkt); again != want {
				t.Fatalf("round %d pkt %d: repeated lookup = %v, want %v", round, p, describe(again), describe(want))
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

func dumpEntries(es []*FlowEntry) string {
	out := ""
	for _, e := range es {
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
