package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the OpenFlow protocol version implemented (1.0).
const Version uint8 = 0x01

// MsgType enumerates OpenFlow 1.0 message types.
type MsgType uint8

// Message types (ofp_type) of the messages a run puts on the control
// channel. The handshake is collapsed (switching.Conn) and no controller
// probes liveness or sets barriers, so the codec carries only these six;
// Decode refuses every other type number with ErrBadMessage.
const (
	MsgError        MsgType = 1
	MsgPacketIn     MsgType = 10
	MsgPacketOut    MsgType = 13
	MsgFlowMod      MsgType = 14
	MsgStatsRequest MsgType = 16
	MsgStatsReply   MsgType = 17
)

// FlowMod commands (ofp_flow_mod_command).
const (
	FlowAdd          uint16 = 0
	FlowModify       uint16 = 1
	FlowModifyStrict uint16 = 2
	FlowDelete       uint16 = 3
	FlowDeleteStrict uint16 = 4
)

// PacketIn reasons (ofp_packet_in_reason).
const (
	PacketInNoMatch uint8 = 0
	PacketInAction  uint8 = 1
)

// Stats types (ofp_stats_types).
const (
	StatsFlow uint16 = 1
	StatsPort uint16 = 4
)

// NoBuffer is the buffer id meaning "full packet included".
const NoBuffer uint32 = 0xffffffff

// Codec errors.
var (
	ErrShortMessage = errors.New("openflow: message truncated")
	ErrBadVersion   = errors.New("openflow: unsupported version")
	ErrBadMessage   = errors.New("openflow: malformed message")
)

// Message is any OpenFlow protocol message.
type Message interface {
	// MsgType returns the wire type code.
	MsgType() MsgType
}

// PhyPort describes one switch port (the field of ofp_phy_port a
// controller reads).
type PhyPort struct {
	PortNo uint16
}

// FeaturesReply describes a switch (the fields of ofp_switch_features a
// controller reads). It is the outcome of the collapsed handshake, handed
// to Controller.SwitchConnected in process, and never crosses the codec.
type FeaturesReply struct {
	DatapathID uint64
	Ports      []PhyPort
}

// PacketIn carries a data-plane packet to the controller.
type PacketIn struct {
	BufferID uint32
	TotalLen uint16
	InPort   uint16
	Reason   uint8
	Data     []byte
}

// MsgType implements Message.
func (PacketIn) MsgType() MsgType { return MsgPacketIn }

// PacketOut injects a packet into the data plane.
type PacketOut struct {
	BufferID uint32
	InPort   uint16
	Actions  []Action
	Data     []byte
}

// MsgType implements Message.
func (PacketOut) MsgType() MsgType { return MsgPacketOut }

// FlowMod adds, modifies or deletes flow entries. Idle and hard timeouts
// are in seconds, as on the wire. The codec carries every command and
// timeout; the simulated switch installs only untimed adds and modifies
// and refuses the rest (switching.Switch).
type FlowMod struct {
	Match       Match
	Cookie      uint64
	Command     uint16
	IdleTimeout uint16
	HardTimeout uint16
	Priority    uint16
	BufferID    uint32
	OutPort     uint16
	Flags       uint16
	Actions     []Action
}

// FlowMod flags.
const (
	FlagSendFlowRem uint16 = 1 << 0
)

// MsgType implements Message.
func (FlowMod) MsgType() MsgType { return MsgFlowMod }

// Error reports a protocol error.
type Error struct {
	Code    uint16
	ErrType uint16
	Data    []byte
}

// MsgType implements Message.
func (Error) MsgType() MsgType { return MsgError }

// FlowStatsRequest selects flows for a StatsRequest.
type FlowStatsRequest struct {
	Match   Match
	TableID uint8
	OutPort uint16
}

// PortStatsRequest selects a port (PortNone = all) for a StatsRequest.
type PortStatsRequest struct {
	PortNo uint16
}

// StatsRequest queries switch statistics. Exactly one of Flow/Port is
// non-nil, per StatsType.
type StatsRequest struct {
	StatsType uint16
	Flags     uint16
	Flow      *FlowStatsRequest
	Port      *PortStatsRequest
}

// MsgType implements Message.
func (StatsRequest) MsgType() MsgType { return MsgStatsRequest }

// FlowStats is one entry of a flow-stats reply.
type FlowStats struct {
	TableID     uint8
	Match       Match
	DurationSec uint32
	Priority    uint16
	IdleTimeout uint16
	HardTimeout uint16
	Cookie      uint64
	PacketCount uint64
	ByteCount   uint64
	Actions     []Action
}

// PortStats is one entry of a port-stats reply (transmit/receive counters
// only; the error counters the prototype never reads are omitted from the
// struct but padded on the wire).
type PortStats struct {
	PortNo    uint16
	RxPackets uint64
	TxPackets uint64
	RxBytes   uint64
	TxBytes   uint64
	RxDropped uint64
	TxDropped uint64
}

// StatsReply answers a StatsRequest.
type StatsReply struct {
	StatsType uint16
	Flags     uint16
	Flow      []FlowStats
	Port      []PortStats
}

// MsgType implements Message.
func (StatsReply) MsgType() MsgType { return MsgStatsReply }

const (
	headerLen = 8
	matchLen  = 40
)

// Encode serialises a message with the given transaction id into OpenFlow
// 1.0 wire format.
func Encode(m Message, xid uint32) []byte { return AppendEncode(nil, m, xid) }

// AppendEncode appends the encoded form of m to dst and returns the
// extended slice. PacketIn and PacketOut — the compare channel's
// per-copy messages — are encoded by AppendPacketIn and AppendPacketOut,
// which the compare channel calls directly: a Message argument boxes
// its value, one allocation per call.
func AppendEncode(dst []byte, m Message, xid uint32) []byte {
	switch v := m.(type) {
	case PacketIn:
		return AppendPacketIn(dst, &v, xid)
	case PacketOut:
		return AppendPacketOut(dst, &v, xid)
	default:
		body := encodeBody(m)
		dst = reserve(dst, headerLen+len(body))
		dst = appendHeader(dst, m.MsgType(), headerLen+len(body), xid)
		return append(dst, body...)
	}
}

// AppendPacketIn appends the encoded form of *m to dst with one exact
// reservation, so it allocates nothing when dst has the capacity.
func AppendPacketIn(dst []byte, m *PacketIn, xid uint32) []byte {
	total := headerLen + 10 + len(m.Data)
	dst = reserve(dst, total)
	dst = appendHeader(dst, m.MsgType(), total, xid)
	dst = binary.BigEndian.AppendUint32(dst, m.BufferID)
	dst = binary.BigEndian.AppendUint16(dst, m.TotalLen)
	dst = binary.BigEndian.AppendUint16(dst, m.InPort)
	dst = append(dst, m.Reason, 0)
	return append(dst, m.Data...)
}

// AppendPacketOut appends the encoded form of *m to dst with one exact
// reservation, so it allocates nothing when dst has the capacity.
func AppendPacketOut(dst []byte, m *PacketOut, xid uint32) []byte {
	alen := actionsWireLen(m.Actions)
	total := headerLen + 8 + alen + len(m.Data)
	dst = reserve(dst, total)
	dst = appendHeader(dst, m.MsgType(), total, xid)
	dst = binary.BigEndian.AppendUint32(dst, m.BufferID)
	dst = binary.BigEndian.AppendUint16(dst, m.InPort)
	dst = binary.BigEndian.AppendUint16(dst, uint16(alen))
	dst = appendActions(dst, m.Actions)
	return append(dst, m.Data...)
}

// reserve guarantees dst has capacity for n more bytes.
func reserve(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	grown := make([]byte, len(dst), len(dst)+n)
	copy(grown, dst)
	return grown
}

func appendHeader(dst []byte, t MsgType, total int, xid uint32) []byte {
	dst = append(dst, Version, byte(t))
	dst = binary.BigEndian.AppendUint16(dst, uint16(total))
	return binary.BigEndian.AppendUint32(dst, xid)
}

// actionsWireLen returns the encoded length of an action list.
func actionsWireLen(actions []Action) int {
	n := 0
	for _, a := range actions {
		switch a.Type {
		case ActionSetDlSrc, ActionSetDlDst:
			n += 16
		default:
			n += 8
		}
	}
	return n
}

func encodeBody(m Message) []byte {
	switch v := m.(type) {
	case Error:
		b := make([]byte, 4, 4+len(v.Data))
		binary.BigEndian.PutUint16(b[0:2], v.ErrType)
		binary.BigEndian.PutUint16(b[2:4], v.Code)
		return append(b, v.Data...)
	case FlowMod:
		b := make([]byte, 0, matchLen+24)
		b = append(b, encodeMatch(v.Match)...)
		b = binary.BigEndian.AppendUint64(b, v.Cookie)
		b = binary.BigEndian.AppendUint16(b, v.Command)
		b = binary.BigEndian.AppendUint16(b, v.IdleTimeout)
		b = binary.BigEndian.AppendUint16(b, v.HardTimeout)
		b = binary.BigEndian.AppendUint16(b, v.Priority)
		b = binary.BigEndian.AppendUint32(b, v.BufferID)
		b = binary.BigEndian.AppendUint16(b, v.OutPort)
		b = binary.BigEndian.AppendUint16(b, v.Flags)
		return append(b, encodeActions(v.Actions)...)
	case StatsRequest:
		b := make([]byte, 4)
		binary.BigEndian.PutUint16(b[0:2], v.StatsType)
		binary.BigEndian.PutUint16(b[2:4], v.Flags)
		switch v.StatsType {
		case StatsFlow:
			b = append(b, encodeMatch(v.Flow.Match)...)
			b = append(b, v.Flow.TableID, 0)
			b = binary.BigEndian.AppendUint16(b, v.Flow.OutPort)
		case StatsPort:
			b = binary.BigEndian.AppendUint16(b, v.Port.PortNo)
			b = append(b, 0, 0, 0, 0, 0, 0)
		}
		return b
	case StatsReply:
		b := make([]byte, 4)
		binary.BigEndian.PutUint16(b[0:2], v.StatsType)
		binary.BigEndian.PutUint16(b[2:4], v.Flags)
		switch v.StatsType {
		case StatsFlow:
			for _, fs := range v.Flow {
				b = append(b, encodeFlowStats(fs)...)
			}
		case StatsPort:
			for _, ps := range v.Port {
				b = append(b, encodePortStats(ps)...)
			}
		}
		return b
	default:
		panic(fmt.Sprintf("openflow: cannot encode %T", m))
	}
}

// DecodePacketIn is the compare channel's zero-allocation decode path: it
// parses a PacketIn without boxing the result in the Message interface,
// and the returned Data field aliases buf instead of copying it. Callers
// must therefore treat the data as valid only while buf is; the generic
// Decode keeps its defensive copy.
func DecodePacketIn(buf []byte) (PacketIn, error) {
	body, err := checkHeader(buf, MsgPacketIn)
	if err != nil {
		return PacketIn{}, err
	}
	if len(body) < 10 {
		return PacketIn{}, fmt.Errorf("%w: packet-in body", ErrShortMessage)
	}
	return PacketIn{
		BufferID: binary.BigEndian.Uint32(body[0:4]),
		TotalLen: binary.BigEndian.Uint16(body[4:6]),
		InPort:   binary.BigEndian.Uint16(body[6:8]),
		Reason:   body[8],
		Data:     body[10:],
	}, nil
}

// DecodePacketOutData extracts a PacketOut's payload without materialising
// the action list or copying: the returned slice aliases buf. The action
// bytes are length-checked but not parsed — the compare channel's release
// path only forwards the enclosed frame.
func DecodePacketOutData(buf []byte) ([]byte, error) {
	body, err := checkHeader(buf, MsgPacketOut)
	if err != nil {
		return nil, err
	}
	if len(body) < 8 {
		return nil, fmt.Errorf("%w: packet-out body", ErrShortMessage)
	}
	alen := int(binary.BigEndian.Uint16(body[6:8]))
	if 8+alen > len(body) {
		return nil, fmt.Errorf("%w: packet-out actions", ErrShortMessage)
	}
	return body[8+alen:], nil
}

// checkHeader validates the OpenFlow header and expected type, returning
// the body slice.
func checkHeader(buf []byte, want MsgType) ([]byte, error) {
	if len(buf) < headerLen {
		return nil, fmt.Errorf("%w: header (%d bytes)", ErrShortMessage, len(buf))
	}
	if buf[0] != Version {
		return nil, fmt.Errorf("%w: %#x", ErrBadVersion, buf[0])
	}
	if MsgType(buf[1]) != want {
		return nil, fmt.Errorf("%w: type %d, want %d", ErrBadMessage, buf[1], want)
	}
	length := int(binary.BigEndian.Uint16(buf[2:4]))
	if length < headerLen || length > len(buf) {
		return nil, fmt.Errorf("%w: declared %d of %d bytes", ErrShortMessage, length, len(buf))
	}
	return buf[headerLen:length], nil
}

// Decode parses one wire-format message, returning the message and its
// transaction id.
func Decode(buf []byte) (Message, uint32, error) {
	if len(buf) < headerLen {
		return nil, 0, fmt.Errorf("%w: header (%d bytes)", ErrShortMessage, len(buf))
	}
	if buf[0] != Version {
		return nil, 0, fmt.Errorf("%w: %#x", ErrBadVersion, buf[0])
	}
	typ := MsgType(buf[1])
	length := int(binary.BigEndian.Uint16(buf[2:4]))
	xid := binary.BigEndian.Uint32(buf[4:8])
	if length < headerLen || length > len(buf) {
		return nil, 0, fmt.Errorf("%w: declared %d of %d bytes", ErrShortMessage, length, len(buf))
	}
	body := buf[headerLen:length]
	m, err := decodeBody(typ, body)
	if err != nil {
		return nil, 0, err
	}
	return m, xid, nil
}

func decodeBody(typ MsgType, b []byte) (Message, error) {
	switch typ {
	case MsgError:
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: error body", ErrShortMessage)
		}
		return Error{
			ErrType: binary.BigEndian.Uint16(b[0:2]),
			Code:    binary.BigEndian.Uint16(b[2:4]),
			Data:    clone(b[4:]),
		}, nil
	case MsgPacketIn:
		if len(b) < 10 {
			return nil, fmt.Errorf("%w: packet-in body", ErrShortMessage)
		}
		return PacketIn{
			BufferID: binary.BigEndian.Uint32(b[0:4]),
			TotalLen: binary.BigEndian.Uint16(b[4:6]),
			InPort:   binary.BigEndian.Uint16(b[6:8]),
			Reason:   b[8],
			Data:     clone(b[10:]),
		}, nil
	case MsgPacketOut:
		if len(b) < 8 {
			return nil, fmt.Errorf("%w: packet-out body", ErrShortMessage)
		}
		alen := int(binary.BigEndian.Uint16(b[6:8]))
		if 8+alen > len(b) {
			return nil, fmt.Errorf("%w: packet-out actions", ErrShortMessage)
		}
		actions, err := decodeActions(b[8 : 8+alen])
		if err != nil {
			return nil, err
		}
		return PacketOut{
			BufferID: binary.BigEndian.Uint32(b[0:4]),
			InPort:   binary.BigEndian.Uint16(b[4:6]),
			Actions:  actions,
			Data:     clone(b[8+alen:]),
		}, nil
	case MsgFlowMod:
		if len(b) < matchLen+24 {
			return nil, fmt.Errorf("%w: flow-mod body", ErrShortMessage)
		}
		m, err := decodeMatch(b[:matchLen])
		if err != nil {
			return nil, err
		}
		rest := b[matchLen:]
		actions, err := decodeActions(rest[24:])
		if err != nil {
			return nil, err
		}
		return FlowMod{
			Match:       m,
			Cookie:      binary.BigEndian.Uint64(rest[0:8]),
			Command:     binary.BigEndian.Uint16(rest[8:10]),
			IdleTimeout: binary.BigEndian.Uint16(rest[10:12]),
			HardTimeout: binary.BigEndian.Uint16(rest[12:14]),
			Priority:    binary.BigEndian.Uint16(rest[14:16]),
			BufferID:    binary.BigEndian.Uint32(rest[16:20]),
			OutPort:     binary.BigEndian.Uint16(rest[20:22]),
			Flags:       binary.BigEndian.Uint16(rest[22:24]),
			Actions:     actions,
		}, nil
	case MsgStatsRequest:
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: stats request", ErrShortMessage)
		}
		v := StatsRequest{
			StatsType: binary.BigEndian.Uint16(b[0:2]),
			Flags:     binary.BigEndian.Uint16(b[2:4]),
		}
		rest := b[4:]
		switch v.StatsType {
		case StatsFlow:
			if len(rest) < matchLen+4 {
				return nil, fmt.Errorf("%w: flow stats request", ErrShortMessage)
			}
			m, err := decodeMatch(rest[:matchLen])
			if err != nil {
				return nil, err
			}
			v.Flow = &FlowStatsRequest{
				Match:   m,
				TableID: rest[matchLen],
				OutPort: binary.BigEndian.Uint16(rest[matchLen+2 : matchLen+4]),
			}
		case StatsPort:
			if len(rest) < 8 {
				return nil, fmt.Errorf("%w: port stats request", ErrShortMessage)
			}
			v.Port = &PortStatsRequest{PortNo: binary.BigEndian.Uint16(rest[0:2])}
		default:
			return nil, fmt.Errorf("%w: stats type %d", ErrBadMessage, v.StatsType)
		}
		return v, nil
	case MsgStatsReply:
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: stats reply", ErrShortMessage)
		}
		v := StatsReply{
			StatsType: binary.BigEndian.Uint16(b[0:2]),
			Flags:     binary.BigEndian.Uint16(b[2:4]),
		}
		rest := b[4:]
		switch v.StatsType {
		case StatsFlow:
			for len(rest) > 0 {
				fs, n, err := decodeFlowStats(rest)
				if err != nil {
					return nil, err
				}
				v.Flow = append(v.Flow, fs)
				rest = rest[n:]
			}
		case StatsPort:
			if len(rest)%104 != 0 {
				return nil, fmt.Errorf("%w: port stats body %d", ErrBadMessage, len(rest))
			}
			for off := 0; off < len(rest); off += 104 {
				v.Port = append(v.Port, decodePortStats(rest[off:off+104]))
			}
		default:
			return nil, fmt.Errorf("%w: stats type %d", ErrBadMessage, v.StatsType)
		}
		return v, nil
	default:
		return nil, fmt.Errorf("%w: type %d", ErrBadMessage, typ)
	}
}

func clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// encodeMatch serialises ofp_match (40 bytes).
func encodeMatch(m Match) []byte {
	b := make([]byte, matchLen)
	binary.BigEndian.PutUint32(b[0:4], m.Wildcards)
	binary.BigEndian.PutUint16(b[4:6], m.InPort)
	copy(b[6:12], m.DlSrc[:])
	copy(b[12:18], m.DlDst[:])
	binary.BigEndian.PutUint16(b[18:20], m.DlVLAN)
	b[20] = m.DlVLANPCP
	binary.BigEndian.PutUint16(b[22:24], m.DlType)
	b[24] = m.NwTOS
	b[25] = m.NwProto
	copy(b[28:32], m.NwSrc[:])
	copy(b[32:36], m.NwDst[:])
	binary.BigEndian.PutUint16(b[36:38], m.TpSrc)
	binary.BigEndian.PutUint16(b[38:40], m.TpDst)
	return b
}

func decodeMatch(b []byte) (Match, error) {
	var m Match
	if len(b) < matchLen {
		return m, fmt.Errorf("%w: match", ErrShortMessage)
	}
	m.Wildcards = binary.BigEndian.Uint32(b[0:4])
	m.InPort = binary.BigEndian.Uint16(b[4:6])
	copy(m.DlSrc[:], b[6:12])
	copy(m.DlDst[:], b[12:18])
	m.DlVLAN = binary.BigEndian.Uint16(b[18:20])
	m.DlVLANPCP = b[20]
	m.DlType = binary.BigEndian.Uint16(b[22:24])
	m.NwTOS = b[24]
	m.NwProto = b[25]
	copy(m.NwSrc[:], b[28:32])
	copy(m.NwDst[:], b[32:36])
	m.TpSrc = binary.BigEndian.Uint16(b[36:38])
	m.TpDst = binary.BigEndian.Uint16(b[38:40])
	return m, nil
}

// encodeActions serialises an action list (ofp_action_*).
func encodeActions(actions []Action) []byte {
	return appendActions(nil, actions)
}

// appendActions serialises an action list into b.
func appendActions(b []byte, actions []Action) []byte {
	for _, a := range actions {
		switch a.Type {
		case ActionOutput:
			b = appendActionHeader(b, a.Type, 8)
			b = binary.BigEndian.AppendUint16(b, a.Port)
			b = binary.BigEndian.AppendUint16(b, a.MaxLen)
		case ActionSetVLANVID:
			b = appendActionHeader(b, a.Type, 8)
			b = binary.BigEndian.AppendUint16(b, a.VLAN)
			b = append(b, 0, 0)
		case ActionSetVLANPCP:
			b = appendActionHeader(b, a.Type, 8)
			b = append(b, a.PCP, 0, 0, 0)
		case ActionStripVLAN:
			b = appendActionHeader(b, a.Type, 8)
			b = append(b, 0, 0, 0, 0)
		case ActionSetDlSrc, ActionSetDlDst:
			b = appendActionHeader(b, a.Type, 16)
			b = append(b, a.MAC[:]...)
			b = append(b, 0, 0, 0, 0, 0, 0)
		case ActionSetNwSrc, ActionSetNwDst:
			b = appendActionHeader(b, a.Type, 8)
			b = append(b, a.IP[:]...)
		case ActionSetNwTOS:
			b = appendActionHeader(b, a.Type, 8)
			b = append(b, a.TOS, 0, 0, 0)
		case ActionSetTpSrc, ActionSetTpDst:
			b = appendActionHeader(b, a.Type, 8)
			b = binary.BigEndian.AppendUint16(b, a.TpPort)
			b = append(b, 0, 0)
		}
	}
	return b
}

func appendActionHeader(b []byte, t ActionType, length uint16) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(t))
	return binary.BigEndian.AppendUint16(b, length)
}

func decodeActions(b []byte) ([]Action, error) {
	var actions []Action
	for len(b) > 0 {
		if len(b) < 4 {
			return nil, fmt.Errorf("%w: action header", ErrShortMessage)
		}
		t := ActionType(binary.BigEndian.Uint16(b[0:2]))
		length := int(binary.BigEndian.Uint16(b[2:4]))
		if length < 8 || length > len(b) {
			return nil, fmt.Errorf("%w: action length %d of %d", ErrBadMessage, length, len(b))
		}
		body := b[4:length]
		a := Action{Type: t}
		switch t {
		case ActionOutput:
			a.Port = binary.BigEndian.Uint16(body[0:2])
			a.MaxLen = binary.BigEndian.Uint16(body[2:4])
		case ActionSetVLANVID:
			a.VLAN = binary.BigEndian.Uint16(body[0:2])
		case ActionSetVLANPCP:
			a.PCP = body[0]
		case ActionStripVLAN:
		case ActionSetDlSrc, ActionSetDlDst:
			if len(body) < 6 {
				return nil, fmt.Errorf("%w: dl action", ErrShortMessage)
			}
			copy(a.MAC[:], body[0:6])
		case ActionSetNwSrc, ActionSetNwDst:
			copy(a.IP[:], body[0:4])
		case ActionSetNwTOS:
			a.TOS = body[0]
		case ActionSetTpSrc, ActionSetTpDst:
			a.TpPort = binary.BigEndian.Uint16(body[0:2])
		default:
			return nil, fmt.Errorf("%w: action type %d", ErrBadMessage, t)
		}
		actions = append(actions, a)
		b = b[length:]
	}
	return actions, nil
}

func encodeFlowStats(fs FlowStats) []byte {
	actions := encodeActions(fs.Actions)
	b := make([]byte, 0, 88+len(actions))
	b = binary.BigEndian.AppendUint16(b, uint16(88+len(actions)))
	b = append(b, fs.TableID, 0)
	b = append(b, encodeMatch(fs.Match)...)
	b = binary.BigEndian.AppendUint32(b, fs.DurationSec)
	b = binary.BigEndian.AppendUint32(b, 0) // duration_nsec
	b = binary.BigEndian.AppendUint16(b, fs.Priority)
	b = binary.BigEndian.AppendUint16(b, fs.IdleTimeout)
	b = binary.BigEndian.AppendUint16(b, fs.HardTimeout)
	b = append(b, 0, 0, 0, 0, 0, 0) // pad
	b = binary.BigEndian.AppendUint64(b, fs.Cookie)
	b = binary.BigEndian.AppendUint64(b, fs.PacketCount)
	b = binary.BigEndian.AppendUint64(b, fs.ByteCount)
	return append(b, actions...)
}

func decodeFlowStats(b []byte) (FlowStats, int, error) {
	var fs FlowStats
	if len(b) < 88 {
		return fs, 0, fmt.Errorf("%w: flow stats entry", ErrShortMessage)
	}
	length := int(binary.BigEndian.Uint16(b[0:2]))
	if length < 88 || length > len(b) {
		return fs, 0, fmt.Errorf("%w: flow stats length %d", ErrBadMessage, length)
	}
	fs.TableID = b[2]
	m, err := decodeMatch(b[4:44])
	if err != nil {
		return fs, 0, err
	}
	fs.Match = m
	fs.DurationSec = binary.BigEndian.Uint32(b[44:48])
	fs.Priority = binary.BigEndian.Uint16(b[52:54])
	fs.IdleTimeout = binary.BigEndian.Uint16(b[54:56])
	fs.HardTimeout = binary.BigEndian.Uint16(b[56:58])
	fs.Cookie = binary.BigEndian.Uint64(b[64:72])
	fs.PacketCount = binary.BigEndian.Uint64(b[72:80])
	fs.ByteCount = binary.BigEndian.Uint64(b[80:88])
	actions, err := decodeActions(b[88:length])
	if err != nil {
		return fs, 0, err
	}
	fs.Actions = actions
	return fs, length, nil
}

func encodePortStats(ps PortStats) []byte {
	b := make([]byte, 104)
	binary.BigEndian.PutUint16(b[0:2], ps.PortNo)
	binary.BigEndian.PutUint64(b[8:16], ps.RxPackets)
	binary.BigEndian.PutUint64(b[16:24], ps.TxPackets)
	binary.BigEndian.PutUint64(b[24:32], ps.RxBytes)
	binary.BigEndian.PutUint64(b[32:40], ps.TxBytes)
	binary.BigEndian.PutUint64(b[40:48], ps.RxDropped)
	binary.BigEndian.PutUint64(b[48:56], ps.TxDropped)
	return b
}

func decodePortStats(b []byte) PortStats {
	return PortStats{
		PortNo:    binary.BigEndian.Uint16(b[0:2]),
		RxPackets: binary.BigEndian.Uint64(b[8:16]),
		TxPackets: binary.BigEndian.Uint64(b[16:24]),
		RxBytes:   binary.BigEndian.Uint64(b[24:32]),
		TxBytes:   binary.BigEndian.Uint64(b[32:40]),
		RxDropped: binary.BigEndian.Uint64(b[40:48]),
		TxDropped: binary.BigEndian.Uint64(b[48:56]),
	}
}
