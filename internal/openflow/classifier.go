package openflow

import "netco/internal/packet"

// This file implements the flow classifier: tuple-space search
// (Srinivasan/Suri/Varghese), the scheme OVS uses behind its caches.
// Entries are grouped by their exact wildcard mask; within a group, the
// masked header tuple is an exact value, so each group is one hash-table
// lookup. Groups are searched in descending order of the highest priority
// they contain, with early exit once the best match found so far outranks
// every remaining group — so a lookup costs O(masks) hashes instead of
// O(entries) match evaluations, and real rule sets use very few distinct
// masks (the fat-tree case study uses exactly one: dl_dst). The tuple
// space is also the flow table's only copy of its rules: Add installs
// into it and Entries reads it back.

// flowKey is the canonical masked header tuple: every field a mask
// inspects, with non-participating fields zeroed. It is a comparable
// value type so it can key a Go map without allocation, and plain memory
// — fields in falling alignment and the tail filled by pad, which is
// always zero — so the map hashes and compares it as one block of bytes
// rather than field by field (TestFlowKeyIsPlainMemory).
type flowKey struct {
	nwSrc     uint32
	nwDst     uint32
	inPort    uint16
	dlType    uint16
	dlVLAN    uint16
	tpSrc     uint16
	tpDst     uint16
	dlSrc     packet.MAC
	dlDst     packet.MAC
	nwTOS     uint8
	nwProto   uint8
	dlVLANPCP uint8
	pad       [3]uint8
}

// canonMask normalises a Wildcards value so that semantically identical
// masks land in the same tuple-space group: bits outside the defined set
// are cleared and nw_src/nw_dst ignore counts above 32 (which all mean
// "field fully wildcarded") are clamped to exactly 32.
func canonMask(wc uint32) uint32 {
	wc &= WildcardAll
	if bits := (wc >> nwSrcShift) & 0x3f; bits > 32 {
		wc = wc&^uint32(wildcardNwSrcMask) | 32<<nwSrcShift
	}
	if bits := (wc >> nwDstShift) & 0x3f; bits > 32 {
		wc = wc&^uint32(wildcardNwDstMask) | 32<<nwDstShift
	}
	return wc
}

// entryKey canonicalises a match into the masked tuple under its own
// (canonical) mask: participating fields keep their (masked) values,
// wildcarded fields are zeroed so that garbage in them cannot split a
// group. It mirrors Match.Matches field for field.
func entryKey(wc uint32, m Match) flowKey {
	var k flowKey
	if wc&WildcardInPort == 0 {
		k.inPort = m.InPort
	}
	if wc&WildcardDlSrc == 0 {
		k.dlSrc = m.DlSrc
	}
	if wc&WildcardDlDst == 0 {
		k.dlDst = m.DlDst
	}
	if wc&WildcardDlVLAN == 0 {
		if m.DlVLAN == VLANNone {
			k.dlVLAN = VLANNone
		} else {
			k.dlVLAN = m.DlVLAN & 0x0fff
		}
	}
	if wc&WildcardDlVLANPCP == 0 {
		k.dlVLANPCP = m.DlVLANPCP
	}
	if wc&WildcardDlType == 0 {
		k.dlType = m.DlType
	}
	if wc&WildcardNwProto == 0 {
		k.nwProto = m.NwProto
	}
	if wc&WildcardNwTOS == 0 {
		k.nwTOS = m.NwTOS
	}
	if bits := (wc >> nwSrcShift) & 0x3f; bits < 32 {
		k.nwSrc = m.NwSrc.Uint32() & (^uint32(0) << bits)
	}
	if bits := (wc >> nwDstShift) & 0x3f; bits < 32 {
		k.nwDst = m.NwDst.Uint32() & (^uint32(0) << bits)
	}
	if wc&WildcardTpSrc == 0 {
		k.tpSrc = m.TpSrc
	}
	if wc&WildcardTpDst == 0 {
		k.tpDst = m.TpDst
	}
	return k
}

// packetKey extracts the masked tuple of a packet under a group's mask.
// ok is false when the packet lacks a layer the mask inspects (no VLAN
// tag for a PCP match, no IPv4 for L3/L4 fields), in which case no entry
// of the group can match — the same early-outs Match.Matches takes.
func packetKey(wc uint32, inPort uint16, pkt *packet.Packet) (k flowKey, ok bool) {
	if wc&WildcardInPort == 0 {
		k.inPort = inPort
	}
	if wc&WildcardDlSrc == 0 {
		k.dlSrc = pkt.Eth.Src
	}
	if wc&WildcardDlDst == 0 {
		k.dlDst = pkt.Eth.Dst
	}
	if wc&WildcardDlVLAN == 0 {
		if pkt.Eth.VLAN == nil {
			k.dlVLAN = VLANNone
		} else {
			k.dlVLAN = pkt.Eth.VLAN.VID
		}
	}
	if wc&WildcardDlVLANPCP == 0 {
		if pkt.Eth.VLAN == nil {
			return k, false
		}
		k.dlVLANPCP = pkt.Eth.VLAN.PCP
	}
	if wc&WildcardDlType == 0 {
		k.dlType = pkt.Eth.EtherType
	}
	ip := pkt.IP
	if wc&WildcardNwProto == 0 {
		if ip == nil {
			return k, false
		}
		k.nwProto = ip.Protocol
	}
	if wc&WildcardNwTOS == 0 {
		if ip == nil {
			return k, false
		}
		k.nwTOS = ip.TOS
	}
	if bits := (wc >> nwSrcShift) & 0x3f; bits < 32 {
		if ip == nil {
			return k, false
		}
		k.nwSrc = ip.Src.Uint32() & (^uint32(0) << bits)
	}
	if bits := (wc >> nwDstShift) & 0x3f; bits < 32 {
		if ip == nil {
			return k, false
		}
		k.nwDst = ip.Dst.Uint32() & (^uint32(0) << bits)
	}
	if wc&WildcardTpSrc == 0 {
		got, have := tpSrcOf(pkt)
		if !have {
			return k, false
		}
		k.tpSrc = got
	}
	if wc&WildcardTpDst == 0 {
		got, have := tpDstOf(pkt)
		if !have {
			return k, false
		}
		k.tpDst = got
	}
	return k, true
}

// maskGroup is one tuple-space group: every installed entry sharing a
// canonical wildcard mask, hashed by masked tuple. A tuple's bucket is
// the head of a chain through FlowEntry.next, ordered best-first; it
// holds more than one entry only when rules share mask and masked tuple
// but differ in priority or in the garbage of a wildcarded field.
type maskGroup struct {
	wc      uint32
	maxPrio uint16
	buckets map[flowKey]*FlowEntry
}

// better reports whether a beats b under lookup order: higher priority,
// ties broken by insertion sequence (the stable-sort order the linear
// scan used).
func better(a, b *FlowEntry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

// tupleSpace is the flow table's one structure: Lookup searches it, Add
// installs into it and Entries reads it.
type tupleSpace struct {
	groups []*maskGroup // sorted by maxPrio descending
}

// group returns the group of canonical mask wc, creating it if need be.
// A scan, like the search: tables hold a handful of masks.
func (ts *tupleSpace) group(wc uint32) *maskGroup {
	for _, g := range ts.groups {
		if g.wc == wc {
			return g
		}
	}
	g := &maskGroup{wc: wc, buckets: make(map[flowKey]*FlowEntry)}
	ts.groups = append(ts.groups, g)
	return g
}

// add installs e with sequence seq, or in place of the entry with e's
// priority and match, whose seq and chain position e takes; it reports
// whether it replaced one. Only e's own bucket can hold that entry, so
// past finding its group an install costs one hash and a walk of that
// one chain.
func (ts *tupleSpace) add(e *FlowEntry, seq uint64) (replaced bool) {
	g := ts.group(canonMask(e.Match.Wildcards))
	k := entryKey(g.wc, e.Match)
	// A new entry's seq is the table's largest, so it goes after every
	// entry of its priority or higher: the walk stops at the first lower
	// one, and the entry it replaces, if any, lies before that.
	var prev *FlowEntry
	next := g.buckets[k]
	for next != nil && next.Priority >= e.Priority {
		if next.Priority == e.Priority && next.Match == e.Match {
			e.seq, next = next.seq, next.next
			replaced = true
			break
		}
		prev, next = next, next.next
	}
	if !replaced {
		e.seq = seq
	}
	e.next = next
	if prev == nil {
		g.buckets[k] = e
	} else {
		prev.next = e
	}
	if e.Priority > g.maxPrio {
		g.maxPrio = e.Priority
		ts.reorder()
	}
	return replaced
}

// entries appends every installed entry to out, grouped by mask and
// tuple, in no particular order.
func (ts *tupleSpace) entries(out []*FlowEntry) []*FlowEntry {
	for _, g := range ts.groups {
		for _, e := range g.buckets {
			for ; e != nil; e = e.next {
				out = append(out, e)
			}
		}
	}
	return out
}

// reorder restores the descending-maxPrio order of groups after a
// ceiling changed. Insertion sort: the slice is almost sorted and tiny.
func (ts *tupleSpace) reorder() {
	gs := ts.groups
	for i := 1; i < len(gs); i++ {
		g := gs[i]
		j := i - 1
		for j >= 0 && gs[j].maxPrio < g.maxPrio {
			gs[j+1] = gs[j]
			j--
		}
		gs[j+1] = g
	}
}

// search returns the best-matching installed entry for the packet, or
// nil. probes is incremented once per mask group actually hashed, the
// quantity the MaskProbes stat reports.
func (ts *tupleSpace) search(inPort uint16, pkt *packet.Packet, probes *uint64) *FlowEntry {
	var best *FlowEntry
	for _, g := range ts.groups {
		if best != nil && best.Priority > g.maxPrio {
			break
		}
		*probes++
		k, ok := packetKey(g.wc, inPort, pkt)
		if !ok {
			continue
		}
		if cand := g.buckets[k]; cand != nil && (best == nil || better(cand, best)) {
			best = cand
		}
	}
	return best
}
