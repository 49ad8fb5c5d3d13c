package experiment

import (
	"time"

	"netco/internal/adversary"
	"netco/internal/core"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// VirtualResult summarises the §VII virtualized-combiner demonstration.
type VirtualResult struct {
	// Prevention (3 disjoint paths, one tampering device).
	PreventSent       uint64
	PreventDelivered  uint64
	PreventSuppressed uint64

	// Detection (2 disjoint paths, one dropping device).
	DetectSent       uint64
	DetectDelivered  uint64
	DetectAlarms     int
	FirstDetectionAt time.Duration

	// Overhead: goodput with and without the virtual combiner on the
	// same substrate, plus the bandwidth amplification factor (the §VII
	// trade: no extra hardware, k× path bandwidth).
	BaselineMbps  float64
	CombinedMbps  float64
	BandwidthCost float64
}

// RunVirtual demonstrates the virtualized NetCo: prevention over three
// VLAN-labelled disjoint paths, detection over two, and the throughput
// cost of the inband compare.
func RunVirtual(p Params) VirtualResult {
	var res VirtualResult

	// Prevention: 3 paths, the middle one tampering with TOS.
	{
		w, mp, h1, h2 := buildVirtualNet(p, 3, false, func(path, hop int) switching.Behavior {
			if path == 1 && hop == 0 {
				return &adversary.Modify{
					Match:   openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
					Rewrite: []openflow.Action{openflow.SetNwTOS(0xfc)},
				}
			}
			return nil
		})
		sink := traffic.NewUDPSink(h2, 5001)
		src := traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 20e6, PayloadSize: 1000})
		src.Start()
		w.Runner.RunFor(500 * time.Millisecond)
		src.Stop()
		w.Runner.RunFor(100 * time.Millisecond)
		res.PreventSent = src.Sent
		res.PreventDelivered = sink.Stats().Unique
		res.PreventSuppressed = mp.Right.EngineStats().Suppressed
		mp.Close()
	}

	// Detection: 2 paths, one dropper; measure time to first alarm.
	{
		w, mp, h1, h2 := buildVirtualNet(p, 2, true, func(path, hop int) switching.Behavior {
			if path == 1 && hop == 0 {
				return &adversary.Drop{Match: openflow.MatchAll().WithDlDst(packet.HostMAC(2))}
			}
			return nil
		})
		res.FirstDetectionAt = -1
		mp.Right.OnAlarm = func(a core.Alarm) {
			if a.Kind == core.EventDetection {
				res.DetectAlarms++
				if res.FirstDetectionAt < 0 {
					res.FirstDetectionAt = a.At
				}
			}
		}
		sink := traffic.NewUDPSink(h2, 5001)
		src := traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 20e6, PayloadSize: 1000})
		src.Start()
		w.Runner.RunFor(500 * time.Millisecond)
		src.Stop()
		w.Runner.RunFor(100 * time.Millisecond)
		res.DetectSent = src.Sent
		res.DetectDelivered = sink.Stats().Unique
		mp.Close()
	}

	// Overhead: honest 3-path combiner vs a single bare path.
	{
		w, mp, h1, h2 := buildVirtualNet(p, 3, false, nil)
		pt := runVirtualUDP(w.Runner, h1, h2, p)
		res.CombinedMbps = pt
		res.BandwidthCost = 3
		mp.Close()
	}
	{
		sched := sim.NewScheduler()
		net := netem.New(sched)
		link := p.TrunkLink()
		sw := switching.New(sched, switching.Config{Name: "bare", ProcDelay: p.SwitchProc, ProcQueue: p.SwitchQueue})
		h1 := traffic.NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), hostCfgOf(p))
		h2 := traffic.NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), hostCfgOf(p))
		net.Connect(h1, traffic.HostPort, sw, 0, link)
		net.Connect(h2, traffic.HostPort, sw, 1, link)
		sw.Table().Add(&openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll().WithDlDst(h2.MAC()), Actions: []openflow.Action{openflow.Output(1)}})
		sw.Table().Add(&openflow.FlowEntry{Priority: 1, Match: openflow.MatchAll().WithDlDst(h1.MAC()), Actions: []openflow.Action{openflow.Output(0)}})
		res.BaselineMbps = runVirtualUDP(sched, h1, h2, p)
	}
	return res
}

func hostCfgOf(p Params) traffic.HostConfig {
	return traffic.HostConfig{
		IngestPerPacket: p.HostIngest,
		IngestQueue:     p.HostQueue,
		EchoResponder:   true,
	}
}

func buildVirtualNet(p Params, paths int, detectOnly bool, compromise func(path, hop int) switching.Behavior) (*topo.World, *topo.Multipath, *traffic.Host, *traffic.Host) {
	link := p.TrunkLink()
	// Each host sits in its edge's unit, so only path links can be cut.
	w := topo.Open(p.Partitions, p.Workers, topo.Cut{Units: 2 + paths, Delay: link.Delay, Assign: topo.MultipathAssign})
	net := w.Net
	mp := topo.BuildMultipath(net, topo.MultipathParams{
		Paths:           paths,
		HopsPerPath:     2,
		Link:            link,
		EdgeLink:        p.HostLink(),
		SwitchProcDelay: p.SwitchProc,
		SwitchProcQueue: p.SwitchQueue,
		Edge: core.VirtualEdgeConfig{
			Engine: core.Config{
				HoldTimeout:   p.CompareHold,
				CacheCapacity: p.CompareCache,
				DetectOnly:    detectOnly,
			},
			PerCopyCost: p.ComparePerCopy,
			QueueLimit:  p.CompareQueue,
		},
		Compromise: compromise,
	})
	h1 := traffic.NewHost(net.SchedulerFor("h1"), "h1", packet.HostMAC(1), packet.HostIP(1), hostCfgOf(p))
	h2 := traffic.NewHost(net.SchedulerFor("h2"), "h2", packet.HostMAC(2), packet.HostIP(2), hostCfgOf(p))
	net.Connect(h1, traffic.HostPort, mp.Left, core.VirtualHostPort, p.HostLink())
	net.Connect(h2, traffic.HostPort, mp.Right, core.VirtualHostPort, p.HostLink())
	mp.Route(h1.MAC(), core.SideLeft)
	mp.Route(h2.MAC(), core.SideRight)
	w.Wired()
	return w, mp, h1, h2
}

func runVirtualUDP(r sim.Runner, h1, h2 *traffic.Host, p Params) float64 {
	sink := traffic.NewUDPSink(h2, 5002)
	src := traffic.NewUDPSource(h1, 4002, h2.Endpoint(5002), traffic.UDPSourceConfig{Rate: 300e6, PayloadSize: 1470})
	src.Start()
	r.RunFor(p.UDPDuration)
	src.Stop()
	r.RunFor(100 * time.Millisecond)
	return sink.Stats().Goodput() / 1e6
}
