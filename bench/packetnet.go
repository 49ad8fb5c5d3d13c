package main

import (
	"fmt"
	"time"

	"netco/internal/core"
	"netco/internal/experiment"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/sim/par"
	"netco/internal/switching"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// packetNet is an assembled packet-tier scenario seen from outside: the
// runner that advances it and every node whose public counters the
// bench reads. The Fig. 3 testbed and the fat tree both fit it.
type packetNet struct {
	runner   sim.Runner
	sched    *sim.Scheduler // nil when partitioned
	net      *netem.Network
	switches []*switching.Switch
	hosts    []*traffic.Host
	comb     *core.Combiner // testbed only
	trunk    netem.LinkConfig

	srcs  []*traffic.UDPSource
	sinks []*traffic.UDPSink
	tcp   *traffic.TCPFlow

	// buildMS is the topology builder's own wall time (topo.BuildTestbed
	// or topo.BuildFatTree); rulesMS the rule install the bench did.
	buildMS, rulesMS float64

	closeFn func()
}

func (pn *packetNet) close() {
	if pn.closeFn != nil {
		pn.closeFn()
	}
}

// buildCentral3 assembles the paper's reference testbed with the
// calibrated constants.
func buildCentral3(seed int64, rec *spanRecorder) *packetNet {
	p := experiment.DefaultParams()
	p.Seed = seed
	var tb *topo.Testbed
	d := rec.timed("setup.topo", func() { tb = p.Build(experiment.ScenCentral3) })
	return &packetNet{
		runner:   tb.Runner,
		sched:    tb.Sched,
		net:      tb.Net,
		switches: tb.Routers,
		hosts:    []*traffic.Host{tb.H1, tb.H2},
		comb:     tb.Combiner,
		trunk:    p.TrunkLink(),
		buildMS:  ms(d),
		closeFn:  tb.Close,
	}
}

// fatTreeCfg sizes the bench-built fat tree. It mirrors
// experiment.RunScale (workloads_test.go pins the two digests equal at
// RunScale's own parameters) with the payload, rate and jitter exposed.
type fatTreeCfg struct {
	arity      int
	payload    int
	rate       float64 // bits/s of UDP payload per host
	partitions int
	workers    int
	// jitterSeed > 0 gives every source its own tick-jitter stream, so
	// the seed shapes the inputs; 0 is RunScale's jitter-free traffic.
	jitterSeed int64
}

// buildFatTree assembles a k-ary fat tree with k/2 hosts per edge switch
// and proactive two-level dst-MAC routing, every host streaming UDP to
// its slot-twin in the opposite pod.
func buildFatTree(c fatTreeCfg, rec *spanRecorder) *packetNet {
	p := experiment.DefaultParams()
	arity, half := c.arity, c.arity/2
	domains := c.partitions
	if units := arity + half; domains > units {
		domains = units
	}
	link := p.TrunkLink()
	pn := &packetNet{trunk: link}

	var ft *topo.FatTree
	var eng *par.Engine
	d := rec.timed("setup.topo", func() {
		if domains > 1 {
			eng = par.New(domains, c.workers)
			pn.net = netem.NewPartitioned(eng.Schedulers(), topo.FatTreeAssign(arity, domains),
				func(src, dst int) netem.CrossPost { return eng.Boundary(src, dst) })
			pn.runner = eng
		} else {
			pn.sched = sim.NewScheduler()
			pn.net = netem.New(pn.sched)
			pn.runner = pn.sched
		}
		ft = topo.BuildFatTree(pn.net, topo.FatTreeParams{
			Arity:           arity,
			Link:            link,
			SwitchProcDelay: p.SwitchProc,
			SwitchProcQueue: p.SwitchQueue,
		})
	})
	pn.buildMS = ms(d)
	for _, pod := range ft.Pods {
		pn.switches = append(pn.switches, pod.Edge...)
		pn.switches = append(pn.switches, pod.Agg...)
	}
	pn.switches = append(pn.switches, ft.Cores...)

	perPod := half * half
	hosts := make([]*traffic.Host, arity*perPod)
	rec.timed("setup.wire", func() {
		hcfg := traffic.HostConfig{IngestPerPacket: p.HostIngest, IngestQueue: p.HostQueue, EchoResponder: true}
		for pod := 0; pod < arity; pod++ {
			for e := 0; e < half; e++ {
				for s := 0; s < half; s++ {
					g := pod*perPod + e*half + s
					name := fmt.Sprintf("pod%d-h%d", pod, e*half+s)
					h := traffic.NewHost(pn.net.SchedulerFor(name), name,
						packet.HostMAC(uint32(1+g)), packet.HostIP(uint32(1+g)), hcfg)
					pn.net.Add(h)
					pn.net.Connect(h, traffic.HostPort, ft.Pods[pod].Edge[e], ft.EdgeHostPortOf(s), p.HostLink())
					hosts[g] = h
				}
			}
		}
	})
	pn.hosts = hosts

	// The dst's edge delivers to the host port; any other edge climbs to
	// agg s%k/2; aggs in the dst pod descend, aggs elsewhere climb to
	// core member pod%k/2; cores descend to the dst pod.
	d = rec.timed("setup.rules", func() {
		route := func(mac packet.MAC, out int) *openflow.FlowEntry {
			return &openflow.FlowEntry{
				Priority: 100,
				Match:    openflow.MatchAll().WithDlDst(mac),
				Actions:  []openflow.Action{openflow.Output(uint16(out))},
			}
		}
		for pod := 0; pod < arity; pod++ {
			for e := 0; e < half; e++ {
				for s := 0; s < half; s++ {
					mac := hosts[pod*perPod+e*half+s].MAC()
					jd, md := s%half, pod%half
					for p2 := 0; p2 < arity; p2++ {
						for e2 := 0; e2 < half; e2++ {
							out := ft.EdgeUpPortOf(jd)
							if p2 == pod && e2 == e {
								out = ft.EdgeHostPortOf(s)
							}
							ft.Pods[p2].Edge[e2].Table().Add(route(mac, out))
						}
						for j := 0; j < half; j++ {
							out := ft.AggUpPortOf(md)
							if p2 == pod {
								out = ft.AggDownPortOf(e)
							}
							ft.Pods[p2].Agg[j].Table().Add(route(mac, out))
						}
					}
					for _, cw := range ft.Cores {
						cw.Table().Add(route(mac, ft.CorePodPortOf(pod)))
					}
				}
			}
		}
	})
	pn.rulesMS = ms(d)

	rec.timed("setup.flows", func() {
		pn.sinks = make([]*traffic.UDPSink, len(hosts))
		pn.srcs = make([]*traffic.UDPSource, len(hosts))
		for g, h := range hosts {
			pn.sinks[g] = traffic.NewUDPSink(h, 7000)
		}
		for g, h := range hosts {
			pod := g / perPod
			partner := ((pod+arity/2)%arity)*perPod + g%perPod
			cfg := traffic.UDPSourceConfig{Rate: c.rate, PayloadSize: c.payload}
			if c.jitterSeed > 0 {
				// One stream per source: a source only ever runs on its
				// own host's scheduler, so partitioned runs draw the same
				// numbers in the same order as serial ones.
				cfg.Jitter = 100 * time.Microsecond
				cfg.Rng = sim.NewRNG(c.jitterSeed*1_000_003 + int64(g))
			}
			pn.srcs[g] = traffic.NewUDPSource(h, uint16(6000+g), hosts[partner].Endpoint(7000), cfg)
		}
		if eng != nil {
			eng.SetLookahead(pn.net.MinCrossDelay())
		}
	})
	return pn
}

// Indices into counters: every public counter of a packetNet the bench
// reads, summed per layer.
const (
	cEvents = iota
	cLinkTx
	cLinkDrops
	cSwRx
	cSwRxDropped
	cHostRx
	cHostRxDropped
	cLookups
	cMicroHits
	cMaskProbes
	cMisses
	cIngested
	cReleased
	cLate
	cSuppressed
	cCleanupPasses
	cCleanupScanned
	cIngestDrops // compare queue and per-port quota drops
	cAlarms
	cToCompare   // edge: copies marshalled toward the compare
	cFromCompare // edge: releases parsed back
	nCounters
)

type counters [nCounters]uint64

func (pn *packetNet) snapshot() counters {
	var c counters
	c[cEvents] = pn.runner.Executed()
	for _, l := range pn.net.Links() {
		for end := 0; end < 2; end++ {
			st := l.Stats(end)
			c[cLinkTx] += st.TxPackets
			c[cLinkDrops] += st.Drops + st.InFlightDrops + st.ImpairDrops
		}
	}
	for _, sw := range pn.switches {
		for _, port := range sw.Ports().List() {
			pc := sw.PortCounters(port)
			c[cSwRx] += pc.RxPackets
			c[cSwRxDropped] += pc.RxDropped
		}
		st := sw.Table().Stats()
		c[cLookups] += st.Lookups
		c[cMicroHits] += st.MicroflowHits
		c[cMaskProbes] += st.MaskProbes
		c[cMisses] += st.Misses
	}
	for _, h := range pn.hosts {
		st := h.Stats()
		c[cHostRx] += st.RxPackets
		c[cHostRxDropped] += st.RxDropped
	}
	if pn.comb != nil {
		es, cs := pn.comb.Compare.EngineStats(), pn.comb.Compare.Stats()
		c[cIngested], c[cReleased], c[cLate], c[cSuppressed] = es.Ingested, es.Released, es.LateCopies, es.Suppressed
		c[cCleanupPasses], c[cCleanupScanned] = es.CleanupPasses, es.CleanupScanned
		c[cIngestDrops], c[cAlarms] = cs.IngestDrops+cs.QuotaDrops, cs.Alarms
		for _, e := range []*core.EdgeSwitch{pn.comb.Left, pn.comb.Right} {
			st := e.Stats()
			c[cToCompare] += st.ToCompare
			c[cFromCompare] += st.FromCompare
		}
	}
	return c
}

// sub returns the window's counts: b (after) minus a (before).
func (b counters) sub(a counters) counters {
	for i := range b {
		b[i] -= a[i]
	}
	return b
}

// capture keeps clones of the first frames each switch transmits, for
// the probes to replay. Buffers are per switch because a partitioned
// run calls the hooks from several domains at once; merged() interleaves
// them in switch order, which is deterministic.
type capture struct {
	perSwitch [][]*packet.Packet
	swOf      []*switching.Switch
}

const captureTotal = 4096

func attachCapture(switches []*switching.Switch) *capture {
	c := &capture{perSwitch: make([][]*packet.Packet, len(switches)), swOf: switches}
	quota := (captureTotal + len(switches) - 1) / len(switches)
	for i, sw := range switches {
		i := i
		sw.OnTransmit = func(_ int, pkt *packet.Packet) {
			if len(c.perSwitch[i]) < quota {
				c.perSwitch[i] = append(c.perSwitch[i], pkt.Clone())
			}
		}
	}
	return c
}

// captured is one replayable frame and the switch that carried it.
type captured struct {
	pkt *packet.Packet
	sw  *switching.Switch
}

func (c *capture) merged() []captured {
	var out []captured
	for k := 0; len(out) < captureTotal; k++ {
		any := false
		for i, frames := range c.perSwitch {
			if k < len(frames) {
				out = append(out, captured{frames[k], c.swOf[i]})
				any = true
			}
		}
		if !any {
			break
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
