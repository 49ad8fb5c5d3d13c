package experiment

import (
	"fmt"
	"math"
	"strings"
	"time"

	"netco/internal/core"
	"netco/internal/metrics"
	"netco/internal/netem"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
	"netco/internal/traffic"
)

// The hybrid traffic engine couples two fidelity tiers in one serial
// simulation:
//
//   - a fat-tree fabric whose flows are fluid rate processes (see
//     internal/traffic's FluidNet): no per-packet events, just max-min
//     fair allocations recomputed at epoch boundaries over a table of
//     directions (fatTreeDirs), with no packet network behind it;
//   - a packet-exact region — a NetCo combiner between two gateway
//     hosts — where every frame, copy and compare decision is simulated
//     exactly as in the paper's evaluation.
//
// A flow's index decides its tier. The first CrossFlows flows are
// monitored: from their start they are promoted — expanded into real
// datagrams through the combiner by a UDP expander driven at the flow's
// fluid allocation. At SwapAt the first swapN of them collapse back to
// pure rate processes (Demote) and the next swapN flows, which own
// expanders but had stayed fluid, are promoted in their place. Every
// other flow is fluid for its whole life. Because the gateway/combiner
// component shares no links with the fabric, the region's observable
// behaviour (sink counters, alarms, compare stats) is a function of the
// expander streams alone; a pure-packet rerun of the same scenario
// (PacketFabric mode) reproduces it bit for bit while the fabric's
// goodput stays within fluid-model tolerance. That is the fidelity
// contract the differential test in hybrid_test.go enforces.
//
// The engine is serial by construction (one scheduler); Params.Partitions
// and Params.Workers do not apply.

const (
	// hybridPayload is the UDP payload size used by expanders and
	// packet-mode fabric sources (iperf's default datagram).
	hybridPayload = 1470
	// startWaves staggers flow starts across this many offsets inside
	// the first two epochs, exercising the allocator's epoch coalescing.
	// Each wave is one scheduler event starting its stride of flows in
	// index order — at million-flow scale a per-flow timer apiece would
	// dominate the build.
	startWaves = 4

	// Expander sinks listen on gw1, expander i (a monitored or SwapAt
	// flow) on preSinkBase+i, one port each: a host keeps one handler
	// per port, so a shared port's sink would count both streams and the
	// other none. Expanders are capped at maxPreSinks, the ports
	// 30000–39999.
	preSinkBase = 30000
	maxPreSinks = 10_000
)

// preSinkPort is the gw1 port of expander i.
func preSinkPort(i int) uint16 { return uint16(preSinkBase + i) }

// hybridDst returns the destination host of flow i when every host
// sources perHost flows: host g's flow k crosses to pod g/perPod+1+k mod
// (arity-1), at the host k past g's own position in its pod.
func (t *fatTreeDirs) hybridDst(i, perHost int) int {
	g, k := i/perHost, i%perHost
	sp, sl := g/t.perPod, g%t.perPod
	dp := (sp + 1 + k%(t.arity-1)) % t.arity
	return dp*t.perPod + (sl+k)%t.perPod
}

// preProvisioned clamps the monitored flows to the flow count and to the
// pre-provisioned sink ports, and returns how many SwapAt flows get an
// expander beside them: half the monitored ones when swap is set, as far
// as the flows and the ports go.
func preProvisioned(total, cross int, swap bool) (int, int) {
	cross = min(cross, total, maxPreSinks)
	if !swap {
		return cross, 0
	}
	return cross, min(cross/2, total-cross, maxPreSinks-cross)
}

// HybridParams sizes one hybrid scenario.
type HybridParams struct {
	// Arity is the fat-tree k (even, ≥ 2): 30 is a 1125-switch fabric,
	// 48 the bench's hybrid_fluid workload; tests use 4.
	Arity int
	// FlowsPerHost fans each fabric host out to that many cross-pod
	// destinations.
	FlowsPerHost int
	// FlowDemand is each flow's offered load (bits/s).
	FlowDemand float64
	// CrossFlows is how many flows are monitored traffic steered through
	// the combiner region (promoted from the start). It is clamped to the
	// flow count and to 10,000: monitored and SwapAt flows share the
	// 10,000 gw1 ports 30000–39999, one expander sink each.
	CrossFlows int
	// Duration is the measurement window; flows start staggered across
	// the first two allocation epochs and stop together at Duration.
	Duration time.Duration
	// Epoch is the fluid tier's reallocation quantum.
	Epoch time.Duration
	// SwapAt, when positive, demotes half the monitored flows at that
	// time (their traffic exits the region) and promotes an equal number
	// of until-then fluid flows (entering it) — the live region-boundary
	// transition exercise.
	SwapAt time.Duration
	// PacketFabric materialises every background flow (one that never
	// owns an expander) as a real UDP packet stream over a packet fat tree
	// with proactive routing, instead of a rate process: the pure-packet
	// baseline of the differential fidelity test. The expander flows keep
	// their fluid segment on the link-less directions of hybrid mode,
	// which no packet link shares. Only sensible for small Arity.
	PacketFabric bool
	// SettleWorkers parallelises the fluid allocator's per-component
	// settle (see traffic.FluidConfig.SettleWorkers). Results are
	// bit-identical at any worker count; 0 or 1 is serial.
	SettleWorkers int

	// Churn knobs (RunChurn / KindChurn only; RunHybrid ignores them).

	// ChurnArrivals is the target flow arrival rate per simulated
	// second. Flow lifetime is size/FlowDemand, so steady-state live
	// flows ≈ ChurnArrivals × ChurnMeanBytes × 8 / FlowDemand.
	ChurnArrivals float64
	// ChurnMeanBytes is the mean flow size. Sizes mix exponential
	// (mice) and Pareto α=1.5 (elephants) draws with this common mean.
	ChurnMeanBytes float64
	// ChurnParetoFrac is the fraction of flows drawn from the
	// heavy-tailed Pareto component (0 = all exponential).
	ChurnParetoFrac float64
	// ChurnCrossFrac is the fraction of churn flows routed cross-pod
	// through the core. Cross-pod flows couple pod components into one
	// allocator component, so keep this small when measuring parallel
	// settle speedup (0 = all pod-local).
	ChurnCrossFrac float64
}

// DefaultHybridParams returns the small configuration used by the
// KindHybrid sweep unit and the smoke tests.
func DefaultHybridParams() HybridParams {
	return HybridParams{
		Arity:        4,
		FlowsPerHost: 2,
		FlowDemand:   2e6,
		CrossFlows:   4,
		Duration:     400 * time.Millisecond,
		Epoch:        5 * time.Millisecond,
		SwapAt:       200 * time.Millisecond,

		ChurnArrivals:   10_000,
		ChurnMeanBytes:  40_000,
		ChurnParetoFrac: 0.3,
	}
}

// HybridResult is one hybrid run's outcome.
type HybridResult struct {
	Arity      int `json:"arity"`
	Hosts      int `json:"hosts"`
	Switches   int `json:"switches"` // fabric switches (combiner excluded)
	Flows      int `json:"flows"`
	CrossFlows int `json:"cross_flows"`

	Events     uint64 `json:"events"`
	Settles    uint64 `json:"settles"`
	Promotions uint64 `json:"promotions"`
	Demotions  uint64 `json:"demotions"`

	// Build-time breakdown (wall clock, not simulated time): PacketFabric's
	// switches + links and hosts + host links, then flow construction.
	// Provenance only — never folded into digests.
	BuildTopoMS  float64 `json:"build_topo_ms"`
	BuildWireMS  float64 `json:"build_wire_ms"`
	BuildFlowsMS float64 `json:"build_flows_ms"`

	// FluidDeliveredBits totals every flow's delivered traffic
	// (analytic accrual for fluid segments, measured sink bytes for
	// promoted segments). BackgroundDeliveredBits is the subtotal of
	// flows that never owned an expander — the apples-to-apples figure
	// the differential fidelity test compares across modes (in
	// PacketFabric mode it is measured at real packet sinks).
	FluidDeliveredBits      float64 `json:"fluid_delivered_bits"`
	BackgroundDeliveredBits float64 `json:"background_delivered_bits"`

	// RegionDigest canonically summarises the packet-exact region's
	// observable behaviour: per-expander sink counters, gateway stack
	// counters, compare stats and alarm count. A hybrid run and its
	// pure-packet baseline must produce equal RegionDigests.
	RegionDigest string `json:"region_digest"`
	// Digest extends RegionDigest with the fluid tier's outcome (per-
	// flow delivered bits and rates, folded exactly) plus event and
	// settle counts — the whole-run determinism witness.
	Digest string `json:"digest"`

	// ProjectedPacketEvents estimates what a pure-packet simulation of
	// the same scenario would execute; EventRatio divides it by the
	// events actually executed.
	ProjectedPacketEvents float64 `json:"projected_packet_events"`
	EventRatio            float64 `json:"event_ratio"`

	// Hists carries the run's streaming aggregates: flow_rate_mbps and
	// flow_goodput_mbps from the fluid tier, region_wire_bytes and
	// region_gap_us folded live off the combiner routers' transmissions.
	Hists map[string]metrics.Hist `json:"hists,omitempty"`
}

// RunHybrid builds and runs one hybrid scenario. It is a pure function
// of its inputs like the other experiment units, but always serial.
func RunHybrid(p Params, hp HybridParams) HybridResult {
	if hp.Arity < 2 || hp.Arity%2 != 0 {
		panic(fmt.Sprintf("experiment: hybrid arity %d must be even and >= 2", hp.Arity))
	}
	if hp.Epoch <= 0 {
		hp.Epoch = 10 * time.Millisecond
	}

	sched := sim.NewScheduler()
	nw := netem.New(sched)

	// Packet-exact region first: a Central combiner between two gateway
	// hosts. Building it before the fabric keeps its links' creation
	// order — and therefore same-instant event ordering — independent
	// of fabric size and mode.
	gw0 := traffic.NewHost(sched, "gw0", packet.HostMAC(1<<20), packet.HostIP(1<<20), hostCfgOf(p))
	gw1 := traffic.NewHost(sched, "gw1", packet.HostMAC(1<<20+1), packet.HostIP(1<<20+1), hostCfgOf(p))
	comb := core.Build(nw, core.CombinerSpec{
		K:             3,
		Mode:          core.CombinerCentral,
		Compare:       p.TestbedParams(ScenCentral3, nil).Compare,
		EdgeProcDelay: p.EdgeProc,
		EdgeProcQueue: p.EdgeQueue,
		RouterLink:    p.TrunkLink(),
		CompareLink:   netem.LinkConfig{Bandwidth: p.HostLinkRate, Delay: p.PropDelay, QueueLimit: 4 * p.QueueLimit},
	}, func(i int) *switching.Switch {
		return switching.New(sched, switching.Config{
			Name:       fmt.Sprintf("r%d", i),
			DatapathID: uint64(100 + i),
			ProcDelay:  p.SwitchProc,
			ProcQueue:  p.SwitchQueue,
		})
	})
	comb.AttachHost(nw, core.SideLeft, gw0, traffic.HostPort, gw0.MAC(), p.HostLink())
	comb.AttachHost(nw, core.SideRight, gw1, traffic.HostPort, gw1.MAC(), p.HostLink())

	// Streaming capture on the region routers: every transmission folds
	// its wire length, and its gap after the previous transmission of any
	// of them, into O(1)-memory sketches.
	var wireHist, gapHist metrics.Hist
	var last time.Duration
	var hasLast bool
	capture := func(_ int, pkt *packet.Packet) {
		now := sched.Now()
		wireHist.Add(float64(pkt.WireLen()))
		if hasLast {
			gapHist.Add(float64(now-last) / float64(time.Microsecond))
		}
		last, hasLast = now, true
	}
	for _, r := range comb.Routers {
		r.OnTransmit = capture
	}

	// Fluid flows route over link-less directions in both modes; the
	// PacketFabric baseline also builds the fat tree for its packets.
	arity := hp.Arity
	fn := traffic.NewFluidNet(sched, traffic.FluidConfig{Epoch: hp.Epoch, SettleWorkers: hp.SettleWorkers})
	tree := newFatTreeDirs(fn, p, arity)
	fb := &fluidFabric{} // nothing built, nothing timed
	if hp.PacketFabric {
		fb = buildFluidFabric(nw, p, arity)
		fb.installRoutes()
	}

	total := tree.hosts * hp.FlowsPerHost
	var swapN int
	hp.CrossFlows, swapN = preProvisioned(total, hp.CrossFlows, hp.SwapAt > 0 && hp.SwapAt < hp.Duration)

	// A flow is its index i: it leaves host i/FlowsPerHost for hybridDst's
	// host. The per-flow state is one fluid handle (nil for a PacketFabric
	// background flow), and the expanders, of the first nexp flows only.
	// Flows 0..CrossFlows-1 are monitored: their traffic is steered
	// through the combiner from the start. Flows CrossFlows..nexp-1 get
	// expanders too, but enter the region only at SwapAt.
	nexp := hp.CrossFlows + swapN
	fluid := make([]*traffic.FluidFlow, total)
	exps := make([]*traffic.UDPExpander, nexp)
	var promotions, demotions uint64

	flowStart := time.Now()
	for i := range exps {
		src := traffic.NewUDPSource(gw0, uint16(1000+i), gw1.Endpoint(preSinkPort(i)),
			traffic.UDPSourceConfig{PayloadSize: hybridPayload})
		exps[i] = traffic.NewUDPExpander(src, traffic.NewUDPSink(gw1, preSinkPort(i)))
	}
	// The fluid allocator carries a flow's fabric segment in every mode;
	// in PacketFabric mode the purely-fluid background flows are
	// materialised as packet streams instead and skip registration.
	registered := total
	if hp.PacketFabric {
		registered = nexp
	}
	pathBuf := make([]int32, 0, 8)
	for i := range registered {
		g := i / hp.FlowsPerHost
		pathBuf = tree.path(g, tree.hybridDst(i, hp.FlowsPerHost), pathBuf[:0])
		fluid[i] = fn.NewFlowDirs(hp.FlowDemand, pathBuf)
	}

	// Packet-mode baseline: real UDP sources/sinks on the fabric hosts
	// for every flow's fabric segment.
	var pktSrcs []*traffic.UDPSource
	var pktSinks []*traffic.UDPSink
	if hp.PacketFabric {
		pktSrcs = make([]*traffic.UDPSource, total)
		pktSinks = make([]*traffic.UDPSink, total)
		for i := range total {
			dst := fb.hosts[tree.hybridDst(i, hp.FlowsPerHost)]
			pktSinks[i] = traffic.NewUDPSink(dst, uint16(20000+i))
			pktSrcs[i] = traffic.NewUDPSource(fb.hosts[i/hp.FlowsPerHost], uint16(1000+i),
				dst.Endpoint(uint16(20000+i)),
				traffic.UDPSourceConfig{Rate: hp.FlowDemand, PayloadSize: hybridPayload})
		}
	}

	// Start waves: one scheduler event per wave starts its stride of
	// flows in index order — the same flow→offset assignment the old
	// per-flow timers produced (wave = idx mod startWaves), at a
	// million fewer events.
	waveGap := 2 * hp.Epoch / startWaves
	for w := 0; w < startWaves; w++ {
		w := w
		sched.After(time.Duration(w)*waveGap, func() {
			for i := w; i < total; i += startWaves {
				if fluid[i] != nil {
					fluid[i].Start()
				}
				if hp.PacketFabric {
					pktSrcs[i].Start()
				}
				if i < hp.CrossFlows {
					fluid[i].Promote(exps[i])
					promotions++
				}
			}
		})
	}
	buildFlowsMS := float64(time.Since(flowStart)) / float64(time.Millisecond)
	if swapN > 0 {
		sched.After(hp.SwapAt, func() {
			for j := 0; j < swapN; j++ {
				fluid[j].Demote()
				demotions++
				in := hp.CrossFlows + j
				fluid[in].Promote(exps[in])
				promotions++
			}
		})
	}

	sched.RunFor(hp.Duration)

	// Capture allocations before teardown: the final max-min state is
	// part of the fluid tier's observable outcome.
	var rateHist, goodHist metrics.Hist
	for _, f := range fluid {
		if f != nil {
			rateHist.Add(f.Rate() / 1e6)
		}
	}

	for i, f := range fluid {
		if f != nil {
			f.Stop()
		}
		if hp.PacketFabric {
			pktSrcs[i].Stop()
		}
	}
	sched.RunFor(50 * time.Millisecond) // drain in-flight region traffic
	fn.Close()
	comb.Close()

	// Region digest: everything the packet-exact region observed, in
	// flow order.
	var rb strings.Builder
	for i, x := range exps {
		st := x.Sink.Stats()
		fmt.Fprintf(&rb, "x%d:s=%d u=%d b=%d dup=%d re=%d cor=%d;",
			i, x.Src.Sent, st.Unique, st.UniqueBytes, st.Duplicates, st.Reordered, st.Corrupted)
	}
	cs := comb.Compare.Stats()
	fmt.Fprintf(&rb, "cmp:a=%d i=%d q=%d blk=%d;gw:%d/%d",
		cs.Alarms, cs.IngestDrops, cs.QuotaDrops, cs.Blocks,
		gw0.Stats().TxPackets, gw1.Stats().RxPackets)
	regionDigest := rb.String()

	// Delivered traffic per flow. Expander flows are measured by their
	// flow handle (sink bytes while promoted, analytic accrual
	// otherwise) in both modes; background flows by analytic accrual in
	// hybrid mode and by their real packet sink in the baseline — never
	// both, so the two modes count each flow exactly once. The whole-run
	// digest folds the fluid outcome exactly (bit patterns, flow order)
	// over the region digest.
	var deliveredTotal, backgroundTotal float64
	h := newFnvFold()
	h.h.Write([]byte(regionDigest))
	for i, f := range fluid {
		var bits float64
		if f != nil {
			bits = f.DeliveredBits()
		} else {
			bits = float64(pktSinks[i].Stats().UniqueBytes) * 8
		}
		deliveredTotal += bits
		if i >= nexp {
			backgroundTotal += bits
		}
		goodHist.Add(bits / hp.Duration.Seconds() / 1e6)
		h.put(math.Float64bits(bits))
		if f != nil {
			h.put(math.Float64bits(f.Rate()))
		}
	}
	h.put(fn.Settles())
	digest := fmt.Sprintf("%s|fluid=%016x|settles=%d|events=%d", regionDigest, h.h.Sum64(), fn.Settles(), sched.Executed())

	// Pure-packet projection: each flow at its offered rate would emit
	// demand/(8·payload) datagrams per second for the duration, each
	// crossing ~6 links at one scheduler event per link hop (the
	// delivery) plus ~8 more for switch pipelines and host ingest.
	perDatagram := 14.0
	projected := float64(total) * hp.FlowDemand / (8 * hybridPayload) * hp.Duration.Seconds() * perDatagram
	events := sched.Executed()
	ratio := 0.0
	if events > 0 {
		ratio = projected / float64(events)
	}

	return HybridResult{
		Arity:                   arity,
		Hosts:                   tree.hosts,
		Switches:                5 * arity * arity / 4, // (k/2)² cores, k² aggs and edges
		Flows:                   total,
		CrossFlows:              hp.CrossFlows,
		Events:                  events,
		Settles:                 fn.Settles(),
		Promotions:              promotions,
		Demotions:               demotions,
		BuildTopoMS:             fb.topoMS,
		BuildWireMS:             fb.wireMS,
		BuildFlowsMS:            buildFlowsMS,
		FluidDeliveredBits:      deliveredTotal,
		BackgroundDeliveredBits: backgroundTotal,
		RegionDigest:            regionDigest,
		Digest:                  digest,
		ProjectedPacketEvents:   projected,
		EventRatio:              ratio,
		Hists: map[string]metrics.Hist{
			"flow_rate_mbps":    rateHist,
			"flow_goodput_mbps": goodHist,
			"region_wire_bytes": wireHist,
			"region_gap_us":     gapHist,
		},
	}
}
