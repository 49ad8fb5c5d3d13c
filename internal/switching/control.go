package switching

import (
	"fmt"
	"time"

	"netco/internal/openflow"
	"netco/internal/packet"
)

// Controller is the control-plane application interface. The controller
// package provides topology-routing, monitoring and compare-app
// implementations.
type Controller interface {
	// SwitchConnected fires after the collapsed Hello/Features
	// handshake with the switch's features, handed over in process.
	SwitchConnected(conn *Conn, features openflow.FeaturesReply)
	// Handle receives every switch-to-controller message: PacketIn,
	// StatsReply and Error.
	Handle(conn *Conn, msg openflow.Message, xid uint32)
}

// Conn is the controller's handle to one connected switch. Every message
// in both directions is encoded to OpenFlow 1.0 wire format, delayed by
// the channel latency, and decoded on the far side — so the control
// channel cost that dominates the paper's POX3 scenario is modelled, and
// the codec is exercised by every experiment. The channel never fails:
// a message sent is a message delivered.
type Conn struct {
	sw      *Switch
	ctrl    Controller
	latency time.Duration

	datapathID uint64
	nextXid    uint32

	// Stats.
	ToController   uint64
	FromController uint64
}

// DatapathID identifies the switch on this connection.
func (c *Conn) DatapathID() uint64 { return c.datapathID }

// ConnectController attaches a controller to the switch over a channel
// with the given one-way latency and runs the handshake.
func (sw *Switch) ConnectController(ctrl Controller, latency time.Duration) *Conn {
	conn := &Conn{sw: sw, ctrl: ctrl, latency: latency, datapathID: sw.cfg.DatapathID}
	sw.ctrl = &controllerLink{conn: conn}
	sw.handshake(conn)
	return conn
}

// handshake runs switch Hello → controller Hello → FeaturesRequest →
// FeaturesReply → SwitchConnected, collapsed to the observable outcome:
// after two RTTs the controller learns the features.
func (sw *Switch) handshake(conn *Conn) {
	features := openflow.FeaturesReply{DatapathID: sw.cfg.DatapathID}
	for _, p := range sw.ports.List() {
		features.Ports = append(features.Ports, openflow.PhyPort{PortNo: uint16(p)})
	}
	sw.sched.After(4*conn.latency, func() {
		conn.ctrl.SwitchConnected(conn, features)
	})
}

// Send transmits a controller-to-switch message. The message crosses the
// wire codec and arrives after the channel latency.
func (c *Conn) Send(m openflow.Message) {
	c.nextXid++
	xid := c.nextXid
	wire := openflow.Encode(m, xid)
	c.FromController++
	c.sw.sched.After(c.latency, func() {
		decoded, gotXid, err := openflow.Decode(wire)
		if err != nil {
			// A codec failure here is a programming error; surface it
			// loudly in simulation rather than silently dropping.
			panic(fmt.Sprintf("switching: control channel decode: %v", err))
		}
		c.sw.handleControllerMessage(c, decoded, gotXid)
	})
}

// InstallFlow is shorthand for sending an OFPFC_ADD FlowMod.
func (c *Conn) InstallFlow(fm openflow.FlowMod) {
	fm.Command = openflow.FlowAdd
	c.Send(fm)
}

// PacketOut injects data out of the given switch port.
func (c *Conn) PacketOut(outPort uint16, data []byte) {
	c.Send(openflow.PacketOut{
		BufferID: openflow.NoBuffer,
		InPort:   openflow.PortNone,
		Actions:  []openflow.Action{openflow.Output(outPort)},
		Data:     data,
	})
}

// controllerLink is the switch-side view of the control channel.
type controllerLink struct {
	conn *Conn
}

// sendPacketIn forwards a data-plane packet to the controller.
func (sw *Switch) sendPacketIn(inPort int, pkt *packet.Packet, reason uint8) {
	if sw.ctrl == nil {
		return
	}
	data := pkt.Marshal()
	msg := openflow.PacketIn{
		BufferID: openflow.NoBuffer,
		TotalLen: uint16(len(data)),
		InPort:   uint16(inPort),
		Reason:   reason,
		Data:     data,
	}
	sw.sendToController(msg)
}

func (sw *Switch) sendToController(m openflow.Message) {
	conn := sw.ctrl.conn
	wire := openflow.Encode(m, sw.xid())
	conn.ToController++
	sw.sched.After(conn.latency, func() {
		decoded, xid, err := openflow.Decode(wire)
		if err != nil {
			panic(fmt.Sprintf("switching: control channel decode: %v", err))
		}
		conn.ctrl.Handle(conn, decoded, xid)
	})
}

// handleControllerMessage executes a controller-to-switch request.
func (sw *Switch) handleControllerMessage(c *Conn, m openflow.Message, xid uint32) {
	if sw.down {
		return // a crashed switch processes nothing
	}
	switch v := m.(type) {
	case openflow.FlowMod:
		sw.applyFlowMod(v)
	case openflow.PacketOut:
		pkt, err := packet.Unmarshal(v.Data)
		if err != nil {
			sw.sendToController(openflow.Error{ErrType: 1, Code: 0, Data: v.Data})
			return
		}
		sw.execute(int(v.InPort), pkt, v.Actions)
	case openflow.StatsRequest:
		sw.sendToController(sw.stats(v))
	}
}

// applyFlowMod installs an ADD, MODIFY or MODIFY_STRICT without
// timeouts. Rules change only by install and by Crash, so a delete
// command or a nonzero idle or hard timeout changes no rule: the switch
// answers it with OFPET_FLOW_MOD_FAILED / OFPFMFC_UNSUPPORTED, as a
// switch without the feature does.
func (sw *Switch) applyFlowMod(fm openflow.FlowMod) {
	switch fm.Command {
	case openflow.FlowAdd, openflow.FlowModify, openflow.FlowModifyStrict:
		if fm.IdleTimeout == 0 && fm.HardTimeout == 0 {
			sw.table.Add(&openflow.FlowEntry{
				Priority: fm.Priority,
				Match:    fm.Match,
				Actions:  fm.Actions,
				Cookie:   fm.Cookie,
			})
			return
		}
	}
	sw.sendToController(openflow.Error{ErrType: 3, Code: 5}) // OFPET_FLOW_MOD_FAILED, OFPFMFC_UNSUPPORTED
}

func (sw *Switch) stats(req openflow.StatsRequest) openflow.StatsReply {
	rep := openflow.StatsReply{StatsType: req.StatsType}
	switch req.StatsType {
	case openflow.StatsFlow:
		now := sw.sched.Now()
		for _, e := range sw.table.Entries() {
			if req.Flow != nil && !req.Flow.Match.Subsumes(e.Match) {
				continue
			}
			rep.Flow = append(rep.Flow, openflow.FlowStats{
				Match:       e.Match,
				DurationSec: uint32(e.Duration(now) / time.Second),
				Priority:    e.Priority,
				Cookie:      e.Cookie,
				PacketCount: e.Packets,
				ByteCount:   e.Bytes,
				Actions:     e.Actions,
			})
		}
	case openflow.StatsPort:
		want := openflow.PortNone
		if req.Port != nil {
			want = req.Port.PortNo
		}
		for _, p := range sw.ports.List() {
			if want != openflow.PortNone && uint16(p) != want {
				continue
			}
			pc := sw.PortCounters(p)
			rep.Port = append(rep.Port, openflow.PortStats{
				PortNo:    uint16(p),
				RxPackets: pc.RxPackets,
				TxPackets: pc.TxPackets,
				RxBytes:   pc.RxBytes,
				TxBytes:   pc.TxBytes,
				RxDropped: pc.RxDropped,
			})
		}
	}
	return rep
}
