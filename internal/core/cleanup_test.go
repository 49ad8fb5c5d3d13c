package core_test

import (
	"testing"
	"time"

	"netco/internal/controller"
	"netco/internal/core"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
)

// TestCleanupStallsEveryDeployment drives each of the four compare
// deployments one entry past CacheCapacity and checks that its CPU was
// stalled by scanned × per-entry — Fig. 8's jitter mechanism, which every
// deployment charges from the same EventCleanup. A Proc books a copy's
// service time when it is submitted, so the stall shows on the first copy
// submitted after the pass: it is served one stall plus one per-copy cost
// later, to the nanosecond.
func TestCleanupStallsEveryDeployment(t *testing.T) {
	const (
		capacity = 8
		perCopy  = 10 * time.Microsecond
		scanned  = capacity + 1 - capacity/2
	)
	engine := core.Config{K: 3, HoldTimeout: time.Hour, CacheCapacity: capacity}
	// copyOf returns distinct frame i, VLAN-labelled when tag is non-zero.
	copyOf := func(i int, tag uint16) *packet.Packet {
		src := packet.Endpoint{MAC: packet.HostMAC(1), IP: packet.HostIP(1), Port: 1000}
		dst := packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 2000}
		pkt := packet.NewUDP(src, dst, []byte{byte(i), 0, 0, 0})
		if tag != 0 {
			pkt.Eth.VLAN = &packet.VLANTag{VID: tag}
		}
		return pkt
	}

	// Each deployment returns how to hand it copy i from router 0, its
	// engine counters, the per-entry cost it charges and its Close.
	type deployment struct {
		feed     func(i int)
		stats    func() core.Stats
		perEntry time.Duration
		close    func()
	}
	for _, tc := range []struct {
		name  string
		build func(sched *sim.Scheduler) deployment
	}{
		{"CompareNode", func(sched *sim.Scheduler) deployment {
			const perEntry = 3 * time.Microsecond // the one deployment that configures it
			c := core.NewCompareNode(sched, core.CompareNodeConfig{Engine: engine, PerCopyCost: perCopy, CleanupPerEntry: perEntry})
			feed := func(i int) {
				pin := openflow.PacketIn{BufferID: openflow.NoBuffer, Data: copyOf(i, 0).Marshal()}
				c.Receive(0, &packet.Packet{
					Eth:     packet.Ethernet{EtherType: core.EtherTypeNetCo},
					Payload: openflow.AppendEncode(nil, pin, 0),
				})
			}
			return deployment{feed: feed, stats: c.EngineStats, perEntry: perEntry, close: c.Close}
		}},
		{"Middlebox", func(sched *sim.Scheduler) deployment {
			m := core.NewMiddlebox(sched, core.MiddleboxConfig{K: 3, Engine: engine, PerCopyCost: perCopy})
			feed := func(i int) { m.Receive(core.MiddleboxNetPort, copyOf(i, 101)) }
			return deployment{feed: feed, stats: m.EngineStats, perEntry: core.DefaultCleanupPerEntry, close: m.Close}
		}},
		{"VirtualEdge", func(sched *sim.Scheduler) deployment {
			v := core.NewVirtualEdge(sched, core.VirtualEdgeConfig{Paths: 3, Engine: engine, PerCopyCost: perCopy})
			feed := func(i int) { v.Receive(v.PathPort(0), copyOf(i, v.Tag(0))) }
			return deployment{feed: feed, stats: v.EngineStats, perEntry: core.DefaultCleanupPerEntry, close: v.Close}
		}},
		{"CompareApp", func(sched *sim.Scheduler) deployment {
			app := controller.NewCompareApp(sched, controller.CompareAppConfig{Engine: engine, PerCopyCost: perCopy})
			app.ConfigureDatapath(1, 0, []uint16{1, 2, 3}, nil)
			sw := switching.New(sched, switching.Config{Name: "s1", DatapathID: 1})
			conn := sw.ConnectController(app, time.Microsecond)
			sched.RunFor(time.Millisecond) // handshake
			feed := func(i int) {
				app.Handle(conn, openflow.PacketIn{InPort: 1, Data: copyOf(i, 0).Marshal()}, 0)
			}
			stats := func() core.Stats { return app.Engine(1).Stats() }
			return deployment{feed: feed, stats: stats, perEntry: core.DefaultCleanupPerEntry, close: app.Close}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			d := tc.build(sched)
			defer d.close()
			for i := 0; i <= capacity; i++ {
				d.feed(i)
			}
			sched.RunFor((capacity + 1) * perCopy)
			if st := d.stats(); st.Ingested != capacity+1 || st.CleanupPasses != 1 || st.CleanupScanned != scanned {
				t.Fatalf("after %d copies: %+v, want one pass scanning %d", capacity+1, st, scanned)
			}

			d.feed(capacity + 1)
			stall := scanned * d.perEntry
			sched.RunFor(stall + perCopy - time.Nanosecond)
			if got := d.stats().Ingested; got != capacity+1 {
				t.Fatalf("copy submitted after the pass served early (ingested %d): stall shorter than %v", got, stall)
			}
			sched.RunFor(time.Nanosecond)
			if got := d.stats().Ingested; got != capacity+2 {
				t.Fatalf("copy submitted after the pass not served at stall %v + per-copy %v (ingested %d)", stall, perCopy, got)
			}
		})
	}
}
