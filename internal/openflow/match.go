// Package openflow implements the OpenFlow 1.0 subset the NetCo prototype
// is built on: the 12-tuple match with wildcards, the header-rewriting and
// output actions, a priority flow table with counters (rules change
// only by install and by a cold reset), and a wire codec for the messages
// a run puts on the control channel (PacketIn, PacketOut, FlowMod,
// flow/port Stats, Error).
//
// The paper's prototype "is based on the OpenFlow 1.0 standard" (§IV); its
// flow rules only match the MAC destination and rewrite the MAC source, but
// the full 1.0 match/action model is implemented here so the §VI case-study
// attack (VLAN rewriting, mirroring) and the §VII virtualized combiner
// (VLAN-tagged path splitting) can be expressed with real flow rules.
package openflow

import (
	"fmt"
	"strings"

	"netco/internal/packet"
)

// Wildcard bits, as in ofp_flow_wildcards (OpenFlow 1.0 §5.2.3).
const (
	WildcardInPort  uint32 = 1 << 0
	WildcardDlVLAN  uint32 = 1 << 1
	WildcardDlSrc   uint32 = 1 << 2
	WildcardDlDst   uint32 = 1 << 3
	WildcardDlType  uint32 = 1 << 4
	WildcardNwProto uint32 = 1 << 5
	WildcardTpSrc   uint32 = 1 << 6
	WildcardTpDst   uint32 = 1 << 7

	nwSrcShift               = 8
	nwDstShift               = 14
	wildcardNwSrcMask        = 0x3f << nwSrcShift
	wildcardNwDstMask        = 0x3f << nwDstShift
	WildcardNwSrcAll         = 32 << nwSrcShift
	WildcardNwDstAll         = 32 << nwDstShift
	WildcardDlVLANPCP        = 1 << 20
	WildcardNwTOS            = 1 << 21
	WildcardAll       uint32 = 0x3fffff
)

// VLANNone is the dl_vlan value that matches untagged frames
// (OFP_VLAN_NONE).
const VLANNone uint16 = 0xffff

// Match is the OpenFlow 1.0 12-tuple flow match. A field takes part in
// matching only when its wildcard bit is clear (for nw_src/nw_dst, when the
// prefix length is greater than zero).
type Match struct {
	Wildcards uint32
	InPort    uint16
	DlSrc     packet.MAC
	DlDst     packet.MAC
	DlVLAN    uint16 // VLANNone matches untagged frames
	DlVLANPCP uint8
	DlType    uint16
	NwTOS     uint8
	NwProto   uint8
	NwSrc     packet.IPAddr
	NwDst     packet.IPAddr
	TpSrc     uint16
	TpDst     uint16
}

// MatchAll returns the fully wildcarded match.
func MatchAll() Match {
	return Match{Wildcards: WildcardAll}
}

// The With* builders clear one wildcard and set the field, enabling
// literal-style rule construction:
//
//	openflow.MatchAll().WithDlDst(mac).WithInPort(2)

// WithInPort matches the ingress port.
func (m Match) WithInPort(p uint16) Match {
	m.Wildcards &^= WildcardInPort
	m.InPort = p
	return m
}

// WithDlSrc matches the Ethernet source address.
func (m Match) WithDlSrc(mac packet.MAC) Match {
	m.Wildcards &^= WildcardDlSrc
	m.DlSrc = mac
	return m
}

// WithDlDst matches the Ethernet destination address.
func (m Match) WithDlDst(mac packet.MAC) Match {
	m.Wildcards &^= WildcardDlDst
	m.DlDst = mac
	return m
}

// WithDlVLAN matches the VLAN ID (VLANNone for untagged frames).
func (m Match) WithDlVLAN(vid uint16) Match {
	m.Wildcards &^= WildcardDlVLAN
	m.DlVLAN = vid
	return m
}

// WithDlVLANPCP matches the VLAN priority.
func (m Match) WithDlVLANPCP(pcp uint8) Match {
	m.Wildcards &^= WildcardDlVLANPCP
	m.DlVLANPCP = pcp
	return m
}

// WithDlType matches the EtherType.
func (m Match) WithDlType(t uint16) Match {
	m.Wildcards &^= WildcardDlType
	m.DlType = t
	return m
}

// WithNwProto matches the IP protocol (requires DlType IPv4 to be
// meaningful, as in OpenFlow 1.0).
func (m Match) WithNwProto(p uint8) Match {
	m.Wildcards &^= WildcardNwProto
	m.NwProto = p
	return m
}

// WithNwTOS matches the IP TOS byte.
func (m Match) WithNwTOS(t uint8) Match {
	m.Wildcards &^= WildcardNwTOS
	m.NwTOS = t
	return m
}

// WithNwSrc matches an IPv4 source prefix of the given length (1–32).
func (m Match) WithNwSrc(ip packet.IPAddr, prefixLen int) Match {
	m.Wildcards = m.Wildcards&^uint32(wildcardNwSrcMask) | uint32(32-prefixLen)<<nwSrcShift
	m.NwSrc = ip
	return m
}

// WithNwDst matches an IPv4 destination prefix of the given length (1–32).
func (m Match) WithNwDst(ip packet.IPAddr, prefixLen int) Match {
	m.Wildcards = m.Wildcards&^uint32(wildcardNwDstMask) | uint32(32-prefixLen)<<nwDstShift
	m.NwDst = ip
	return m
}

// WithTpSrc matches the transport source port (ICMP type for ICMP).
func (m Match) WithTpSrc(p uint16) Match {
	m.Wildcards &^= WildcardTpSrc
	m.TpSrc = p
	return m
}

// WithTpDst matches the transport destination port (ICMP code for ICMP).
func (m Match) WithTpDst(p uint16) Match {
	m.Wildcards &^= WildcardTpDst
	m.TpDst = p
	return m
}

// nwSrcIgnoreBits returns how many low bits of nw_src are wildcarded
// (>= 32 disables the field entirely).
func (m Match) nwSrcIgnoreBits() uint32 { return (m.Wildcards >> nwSrcShift) & 0x3f }

func (m Match) nwDstIgnoreBits() uint32 { return (m.Wildcards >> nwDstShift) & 0x3f }

func prefixMatches(want, got packet.IPAddr, ignoreBits uint32) bool {
	if ignoreBits >= 32 {
		return true
	}
	mask := ^uint32(0) << ignoreBits
	return want.Uint32()&mask == got.Uint32()&mask
}

// Matches reports whether a packet arriving on inPort satisfies the match.
// Semantics follow OpenFlow 1.0 §3.4: L3 fields are consulted only for
// IPv4 frames, L4 ports only for TCP/UDP (and ICMP type/code via
// tp_src/tp_dst).
func (m Match) Matches(inPort uint16, pkt *packet.Packet) bool {
	if m.Wildcards&WildcardInPort == 0 && inPort != m.InPort {
		return false
	}
	if m.Wildcards&WildcardDlSrc == 0 && pkt.Eth.Src != m.DlSrc {
		return false
	}
	if m.Wildcards&WildcardDlDst == 0 && pkt.Eth.Dst != m.DlDst {
		return false
	}
	if m.Wildcards&WildcardDlVLAN == 0 {
		if pkt.Eth.VLAN == nil {
			if m.DlVLAN != VLANNone {
				return false
			}
		} else if m.DlVLAN == VLANNone || pkt.Eth.VLAN.VID != m.DlVLAN&0x0fff {
			return false
		}
	}
	if m.Wildcards&WildcardDlVLANPCP == 0 {
		if pkt.Eth.VLAN == nil || pkt.Eth.VLAN.PCP != m.DlVLANPCP {
			return false
		}
	}
	if m.Wildcards&WildcardDlType == 0 && pkt.Eth.EtherType != m.DlType {
		return false
	}

	ip := pkt.IP
	if m.Wildcards&WildcardNwProto == 0 && (ip == nil || ip.Protocol != m.NwProto) {
		return false
	}
	if m.Wildcards&WildcardNwTOS == 0 && (ip == nil || ip.TOS != m.NwTOS) {
		return false
	}
	if bits := m.nwSrcIgnoreBits(); bits < 32 {
		if ip == nil || !prefixMatches(m.NwSrc, ip.Src, bits) {
			return false
		}
	}
	if bits := m.nwDstIgnoreBits(); bits < 32 {
		if ip == nil || !prefixMatches(m.NwDst, ip.Dst, bits) {
			return false
		}
	}

	if m.Wildcards&WildcardTpSrc == 0 {
		if got, ok := tpSrcOf(pkt); !ok || got != m.TpSrc {
			return false
		}
	}
	if m.Wildcards&WildcardTpDst == 0 {
		if got, ok := tpDstOf(pkt); !ok || got != m.TpDst {
			return false
		}
	}
	return true
}

func tpSrcOf(pkt *packet.Packet) (uint16, bool) {
	switch {
	case pkt.TCP != nil:
		return pkt.TCP.SrcPort, true
	case pkt.UDP != nil:
		return pkt.UDP.SrcPort, true
	case pkt.ICMP != nil:
		return uint16(pkt.ICMP.Type), true
	}
	return 0, false
}

func tpDstOf(pkt *packet.Packet) (uint16, bool) {
	switch {
	case pkt.TCP != nil:
		return pkt.TCP.DstPort, true
	case pkt.UDP != nil:
		return pkt.UDP.DstPort, true
	case pkt.ICMP != nil:
		return uint16(pkt.ICMP.Code), true
	}
	return 0, false
}

// Subsumes reports whether every packet matched by other is also matched
// by m (m is equally or less specific). Used for non-strict flow deletion.
func (m Match) Subsumes(other Match) bool {
	simple := []uint32{
		WildcardInPort, WildcardDlVLAN, WildcardDlSrc, WildcardDlDst,
		WildcardDlType, WildcardNwProto, WildcardTpSrc, WildcardTpDst,
		WildcardDlVLANPCP, WildcardNwTOS,
	}
	for _, bit := range simple {
		if m.Wildcards&bit == 0 {
			if other.Wildcards&bit != 0 {
				return false
			}
			if !fieldEqual(bit, m, other) {
				return false
			}
		}
	}
	if mb, ob := m.nwSrcIgnoreBits(), other.nwSrcIgnoreBits(); mb < 32 {
		if ob > mb || !prefixMatches(m.NwSrc, other.NwSrc, mb) {
			return false
		}
	}
	if mb, ob := m.nwDstIgnoreBits(), other.nwDstIgnoreBits(); mb < 32 {
		if ob > mb || !prefixMatches(m.NwDst, other.NwDst, mb) {
			return false
		}
	}
	return true
}

func fieldEqual(bit uint32, a, b Match) bool {
	switch bit {
	case WildcardInPort:
		return a.InPort == b.InPort
	case WildcardDlVLAN:
		return a.DlVLAN == b.DlVLAN
	case WildcardDlSrc:
		return a.DlSrc == b.DlSrc
	case WildcardDlDst:
		return a.DlDst == b.DlDst
	case WildcardDlType:
		return a.DlType == b.DlType
	case WildcardNwProto:
		return a.NwProto == b.NwProto
	case WildcardTpSrc:
		return a.TpSrc == b.TpSrc
	case WildcardTpDst:
		return a.TpDst == b.TpDst
	case WildcardDlVLANPCP:
		return a.DlVLANPCP == b.DlVLANPCP
	case WildcardNwTOS:
		return a.NwTOS == b.NwTOS
	}
	return false
}

// String renders the non-wildcarded fields, nicest-first, for diagnostics.
func (m Match) String() string {
	if m.Wildcards&WildcardAll == WildcardAll &&
		m.nwSrcIgnoreBits() >= 32 && m.nwDstIgnoreBits() >= 32 {
		return "any"
	}
	var parts []string
	add := func(bit uint32, s string) {
		if m.Wildcards&bit == 0 {
			parts = append(parts, s)
		}
	}
	add(WildcardInPort, fmt.Sprintf("in_port=%d", m.InPort))
	add(WildcardDlSrc, "dl_src="+m.DlSrc.String())
	add(WildcardDlDst, "dl_dst="+m.DlDst.String())
	add(WildcardDlVLAN, fmt.Sprintf("dl_vlan=%d", m.DlVLAN))
	add(WildcardDlVLANPCP, fmt.Sprintf("dl_vlan_pcp=%d", m.DlVLANPCP))
	add(WildcardDlType, fmt.Sprintf("dl_type=%#04x", m.DlType))
	add(WildcardNwTOS, fmt.Sprintf("nw_tos=%d", m.NwTOS))
	add(WildcardNwProto, fmt.Sprintf("nw_proto=%d", m.NwProto))
	if bits := m.nwSrcIgnoreBits(); bits < 32 {
		parts = append(parts, fmt.Sprintf("nw_src=%s/%d", m.NwSrc, 32-bits))
	}
	if bits := m.nwDstIgnoreBits(); bits < 32 {
		parts = append(parts, fmt.Sprintf("nw_dst=%s/%d", m.NwDst, 32-bits))
	}
	add(WildcardTpSrc, fmt.Sprintf("tp_src=%d", m.TpSrc))
	add(WildcardTpDst, fmt.Sprintf("tp_dst=%d", m.TpDst))
	return strings.Join(parts, ",")
}
