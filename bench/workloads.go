package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"time"

	"netco/internal/experiment"
	"netco/internal/sim"
	"netco/internal/traffic"
)

// roundCfg selects one round of a workload: one full scenario from
// build to collected outputs.
type roundCfg struct {
	seed int64
	// tiny shrinks the scenario to test size (workloads_test.go).
	tiny bool
	// traced attaches the frame capture to the switches and keeps the
	// built network for the probes.
	traced bool
	// ref runs the workload's reference variant: the serial engine for
	// fattree_udp_par2, serial settle for churn_fluid. Same inputs, so
	// the digest must come out equal.
	ref bool
	rec *spanRecorder
}

// round is what one round produced.
type round struct {
	setupS  float64 // wall: start of build to first instant of the window
	windowS float64 // wall of the measured window
	// calS are the calibration passes taken around and inside the round
	// (calib.go); factor is the host's slowness they measured.
	calS    []calibPass
	factor  float64
	simS    float64 // simulated seconds the window covered
	cpuS    float64 // process CPU over the window
	live    int     // events still scheduled when the window closed
	peakRSS float64 // resident high-water mark over the round, MB

	// digest is the canonical text of the simulated outputs, event
	// counts stripped: batching events is allowed, changing outcomes is
	// visible.
	digest string
	// counts holds the simulated per-layer counts over the window; they
	// repeat exactly for a seed. host holds host-side per-layer values
	// this round could measure itself (build timers, runtime deltas).
	counts map[string]float64
	host   map[string]float64
	errs   []string

	// Kept by traced packet rounds for the probes.
	pn     *packetNet
	frames []captured
}

func (r *round) failf(format string, a ...any) { r.errs = append(r.errs, fmt.Sprintf(format, a...)) }

// calibrate adds one calibration pass to the round.
func (r *round) calibrate() {
	p, err := calibrate()
	if err != nil {
		r.failf("%v", err)
		return
	}
	r.calS = append(r.calS, p)
}

// digestHash is the short form printed and stored.
func digestHash(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// workload is one named set of inputs.
type workload struct {
	name string
	// hasRef says the workload has a reference variant (roundCfg.ref).
	hasRef bool
	run    func(cfg roundCfg) round
}

var workloads = []workload{
	{"central3_udp", false, central3UDP},
	{"central3_tcp", false, central3TCP},
	{"fattree_udp", false, func(c roundCfg) round { return fatTreeUDP(c, 1) }},
	{"fattree_udp_par2", true, func(c roundCfg) round {
		if c.ref {
			return fatTreeUDP(c, 1)
		}
		return fatTreeUDP(c, 2)
	}},
	{"hybrid_fluid", false, hybridFluid},
	{"churn_fluid", true, churnFluid},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// hostDeltas brackets a window with host-side readings:
// runtime.MemStats and getrusage, both taken outside the timed interval.
type hostDeltas struct {
	m0   runtime.MemStats
	cpu0 float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func startDeltas() *hostDeltas {
	h := &hostDeltas{}
	runtime.ReadMemStats(&h.m0)
	h.cpu0 = cpuSeconds()
	return h
}

// finish fills the runtime.* values per simulated second and event.
func (h *hostDeltas) finish(r *round, events float64) {
	r.cpuS = cpuSeconds() - h.cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	r.host["runtime.cpu_s_per_sim_s"] = r.cpuS / r.simS
	r.host["runtime.alloc_mb_per_sim_s"] = float64(m1.TotalAlloc-h.m0.TotalAlloc) / (1 << 20) / r.simS
	if events > 0 {
		r.host["runtime.mallocs_per_event"] = float64(m1.Mallocs-h.m0.Mallocs) / events
	}
	r.host["runtime.gc_cycles"] = float64(m1.NumGC - h.m0.NumGC)
	r.host["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-h.m0.PauseTotalNs) / 1e6
	r.host["runtime.heap_inuse_end_mb"] = float64(m1.HeapInuse) / (1 << 20)
}

// windowSlices is how many equal simulated intervals a packet round's
// window is run in, with one calibration pass (untimed) after each.
const windowSlices = 10

// packetPlan is the simulated schedule of a packet round.
type packetPlan struct {
	warmup, window, drain time.Duration
}

// runPacket drives a built packetNet through warm-up, the measured
// window and the drain, reading every layer's public counters at the
// window boundaries. start and stop switch the traffic; trafficOut
// appends the workload's own outputs to the digest and counts.
func runPacket(cfg roundCfg, t0 time.Time, pn *packetNet, plan packetPlan, start, stop func(),
	trafficOut func(r *round, atWindowStart bool)) round {
	rec := cfg.rec
	r := round{counts: map[string]float64{}, host: map[string]float64{}, simS: plan.window.Seconds()}
	var cap *capture
	if cfg.traced {
		cap = attachCapture(pn.switches)
	}
	rec.timed("setup.warmup", func() {
		start()
		pn.runner.RunFor(plan.warmup)
	})
	r.setupS = time.Since(t0).Seconds()

	trafficOut(&r, true)
	c0 := pn.snapshot()
	hd := startDeltas()
	rec.timed("window", func() {
		for i := 0; i < windowSlices; i++ {
			t := time.Now()
			pn.runner.RunFor(plan.window / windowSlices)
			r.windowS += time.Since(t).Seconds()
			r.calibrate()
		}
	})
	r.live = pn.runner.Live()
	win := pn.snapshot().sub(c0)
	hd.finish(&r, float64(win[cEvents]))

	rec.timed("drain", func() {
		stop()
		pn.runner.RunFor(plan.drain)
	})
	rec.begin("collect")
	end := pn.snapshot()
	trafficOut(&r, false)
	packetCounts(&r, win)

	// An honest-router run must not alarm; the vote may only lose a
	// packet whose copies a full queue dropped first (TCP fills the
	// compare's ingest queue by design). Every table was installed
	// proactively, so nothing may miss.
	copyDrops := end[cIngestDrops] + end[cLinkDrops] + end[cSwRxDropped]
	if end[cAlarms] != 0 || end[cSuppressed] > copyDrops {
		r.failf("honest run raised %d alarms, suppressed %d packets with %d copies dropped",
			end[cAlarms], end[cSuppressed], copyDrops)
	}
	if end[cMisses] != 0 {
		r.failf("%d flow-table misses on proactive tables", end[cMisses])
	}
	r.digest += fmt.Sprintf("|cmp:in=%d rel=%d late=%d sup=%d cp=%d cs=%d drop=%d al=%d|net:ldrop=%d swdrop=%d hdrop=%d|now=%d",
		end[cIngested], end[cReleased], end[cLate], end[cSuppressed], end[cCleanupPasses], end[cCleanupScanned],
		end[cIngestDrops], end[cAlarms], end[cLinkDrops], end[cSwRxDropped], end[cHostRxDropped], pn.runner.Now())
	r.host["topo.build_testbed_ms"], r.host["topo.build_fattree_ms"] = pn.buildMS, 0
	if pn.comb == nil {
		r.host["topo.build_testbed_ms"], r.host["topo.build_fattree_ms"] = 0, pn.buildMS
	}
	r.host["openflow.rule_install_ms"] = pn.rulesMS
	if cfg.traced {
		r.pn, r.frames = pn, cap.merged()
	}
	rec.end()
	pn.close()
	return r
}

// packetCounts turns the window's counter deltas into the per-layer
// count metrics.
func packetCounts(r *round, w counters) {
	c := r.counts
	c["sim.events_per_sim_s"] = float64(w[cEvents]) / r.simS
	c["netem.link_tx_packets"] = float64(w[cLinkTx])
	c["netem.link_drops"] = float64(w[cLinkDrops])
	// Proc has no public accessor on its owners; every accepted receive
	// at a switch or host and every copy the compare ingested is one
	// Proc item, every refused one a Proc drop.
	c["netem.proc_processed"] = float64(w[cSwRx] - w[cSwRxDropped] + w[cHostRx] - w[cHostRxDropped] + w[cIngested])
	c["netem.proc_dropped"] = float64(w[cSwRxDropped] + w[cHostRxDropped] + w[cIngestDrops])
	c["openflow.lookups"] = float64(w[cLookups])
	c["openflow.misses"] = float64(w[cMisses])
	if w[cLookups] > 0 {
		c["openflow.microflow_hit_rate"] = float64(w[cMicroHits]) / float64(w[cLookups])
		c["openflow.mask_probes_per_lookup"] = float64(w[cMaskProbes]) / float64(w[cLookups])
	}
	c["switching.rx_packets"] = float64(w[cSwRx])
	c["core.ingested"] = float64(w[cIngested])
	c["core.released"] = float64(w[cReleased])
	c["core.late_copies"] = float64(w[cLate])
	c["core.suppressed"] = float64(w[cSuppressed])
	c["core.cleanup_passes"] = float64(w[cCleanupPasses])
	c["core.cleanup_scanned"] = float64(w[cCleanupScanned])
	c["core.ingest_drops"] = float64(w[cIngestDrops])
	c["core.alarms"] = float64(w[cAlarms])
	if w[cIngested] > 0 {
		c["core.release_ratio"] = float64(w[cReleased]) * 3 / float64(w[cIngested])
	}
	// Not metrics, but the probes' multipliers for est_share.
	c["_edge.to_compare"] = float64(w[cToCompare])
	c["_edge.from_compare"] = float64(w[cFromCompare])
}

// udpOut folds UDP sources and sinks into the round. Delivered is
// checked against sent: every missing datagram must be explained by a
// counted drop, and nothing may arrive twice or damaged.
func udpOut(pn *packetNet, perFlow bool) func(r *round, atStart bool) {
	var unique0, bytes0 uint64
	return func(r *round, atStart bool) {
		var sent, unique, ubytes, bad uint64
		var b strings.Builder
		for g := range pn.srcs {
			st := pn.sinks[g].Stats()
			sent += pn.srcs[g].Sent
			unique += st.Unique
			ubytes += st.UniqueBytes
			bad += st.Duplicates + st.Corrupted
			if perFlow && !atStart {
				fmt.Fprintf(&b, "%d:%d/%d u=%d b=%d d=%d r=%d;", g, pn.srcs[g].Sent, pn.srcs[g].SentBytes,
					st.Unique, st.UniqueBytes, st.Duplicates, st.Reordered)
			}
		}
		if atStart {
			unique0, bytes0 = unique, ubytes
			return
		}
		if !perFlow {
			st := pn.sinks[0].Stats()
			fmt.Fprintf(&b, "udp:s=%d u=%d b=%d d=%d r=%d c=%d j=%d first=%d last=%d", sent, st.Unique, st.UniqueBytes,
				st.Duplicates, st.Reordered, st.Corrupted, st.Jitter, st.First, st.Last)
		}
		r.digest = b.String()
		r.counts["traffic.udp_unique"] = float64(unique - unique0)
		r.counts["traffic.goodput_mbps"] = float64(ubytes-bytes0) * 8 / r.simS / 1e6
		r.counts["traffic.udp_lost_frac"] = float64(sent-unique) / float64(sent)
		end := pn.snapshot()
		drops := end[cLinkDrops] + end[cSwRxDropped] + end[cHostRxDropped] + end[cIngestDrops] + end[cSuppressed]
		switch {
		case unique == 0:
			r.failf("no datagram delivered")
		case unique > sent || bad != 0:
			r.failf("delivered %d of %d sent, %d duplicated or corrupted", unique, sent, bad)
		case sent-unique > drops:
			r.failf("sent %d != delivered %d + counted drops %d", sent, unique, drops)
		}
	}
}

func central3UDP(cfg roundCfg) round {
	plan := packetPlan{warmup: 200 * time.Millisecond, window: 4 * time.Second, drain: 40 * time.Millisecond}
	if cfg.tiny {
		plan.warmup, plan.window = 20*time.Millisecond, 100*time.Millisecond
	}
	t0 := time.Now()
	pn := buildCentral3(cfg.seed, cfg.rec)
	cfg.rec.timed("setup.flows", func() {
		h1, h2 := pn.hosts[0], pn.hosts[1]
		pn.sinks = []*traffic.UDPSink{traffic.NewUDPSink(h2, 5001)}
		pn.srcs = []*traffic.UDPSource{traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{
			Rate:        100e6,
			PayloadSize: 1470,
			Jitter:      100 * time.Microsecond,
			Rng:         sim.NewRNG(cfg.seed),
		})}
	})
	return runPacket(cfg, t0, pn, plan, pn.srcs[0].Start, pn.srcs[0].Stop, udpOut(pn, false))
}

func central3TCP(cfg roundCfg) round {
	plan := packetPlan{warmup: 300 * time.Millisecond, window: 2 * time.Second, drain: 40 * time.Millisecond}
	if cfg.tiny {
		plan.warmup, plan.window = 50*time.Millisecond, 100*time.Millisecond
	}
	t0 := time.Now()
	pn := buildCentral3(cfg.seed, cfg.rec)
	// The flow itself draws nothing random; the seed picks its source
	// port and the sub-millisecond instant it starts, which shifts every
	// later timer phase.
	rng := sim.NewRNG(cfg.seed)
	srcPort := uint16(40000 + rng.Intn(1000))
	offset := time.Duration(rng.Intn(1000)) * time.Microsecond
	cfg.rec.timed("setup.flows", func() {
		pn.tcp = traffic.NewTCPFlow(pn.hosts[0], pn.hosts[1], srcPort, 5001, traffic.TCPConfig{})
	})
	start := func() {
		pn.runner.RunFor(offset)
		pn.tcp.Start()
	}
	var s0 traffic.TCPStats
	out := func(r *round, atStart bool) {
		st := pn.tcp.Stats()
		if atStart {
			s0 = st
			return
		}
		r.digest = fmt.Sprintf("tcp:acked=%d good=%d seg=%d rtx=%d frtx=%d to=%d dseg=%d dack=%d",
			st.BytesAcked, st.GoodputBytes, st.SegmentsSent, st.Retransmits, st.FastRetransmits,
			st.Timeouts, st.DupSegments, st.DupAcksSeen)
		mbps := float64(st.GoodputBytes-s0.GoodputBytes) * 8 / r.simS / 1e6
		r.counts["traffic.goodput_mbps"] = mbps
		r.counts["traffic.tcp_retransmits"] = float64(st.Retransmits - s0.Retransmits)
		r.counts["traffic.tcp_timeouts"] = float64(st.Timeouts - s0.Timeouts)
		r.counts["traffic.tcp_dup_acks"] = float64(st.DupAcksSeen - s0.DupAcksSeen)
		for _, row := range experiment.PaperTable1 {
			if row.Scenario == experiment.ScenCentral3 {
				r.counts["traffic.paper_err_frac"] = math.Abs(mbps-row.TCPMbps) / row.TCPMbps
			}
		}
		end := pn.snapshot()
		drops := end[cLinkDrops] + end[cSwRxDropped] + end[cHostRxDropped] + end[cIngestDrops]
		switch {
		case st.GoodputBytes == 0:
			r.failf("no byte delivered")
		case st.BytesAcked > st.GoodputBytes:
			r.failf("acked %d bytes but delivered %d", st.BytesAcked, st.GoodputBytes)
		case st.Retransmits > 0 && drops == 0:
			r.failf("%d retransmits without a counted drop", st.Retransmits)
		}
	}
	return runPacket(cfg, t0, pn, plan, start, pn.tcp.Stop, out)
}

func fatTreeUDP(cfg roundCfg, partitions int) round {
	plan := packetPlan{warmup: 20 * time.Millisecond, window: 300 * time.Millisecond, drain: 20 * time.Millisecond}
	c := fatTreeCfg{arity: 8, payload: 64, rate: 64 * 8 * 2441, partitions: partitions, workers: partitions, jitterSeed: cfg.seed}
	if cfg.tiny {
		plan.warmup, plan.window = 5*time.Millisecond, 20*time.Millisecond
		c.arity = 4
	}
	return fatTreeRound(cfg, c, plan)
}

// fatTreeRound runs one fat-tree round at any sizing; the test that pins
// the bench's builder to experiment.RunScale calls it directly.
func fatTreeRound(cfg roundCfg, c fatTreeCfg, plan packetPlan) round {
	t0 := time.Now()
	pn := buildFatTree(c, cfg.rec)
	start := func() {
		for _, s := range pn.srcs {
			s.Start()
		}
	}
	stop := func() {
		for _, s := range pn.srcs {
			s.Stop()
		}
	}
	return runPacket(cfg, t0, pn, plan, start, stop, udpOut(pn, true))
}

// fluidOut is what a fluid round's monolithic Run call reports back.
type fluidOut struct {
	digest  string
	buildMS [3]float64 // topo, wire, flows: the result's own build timers
	events  uint64
}

// fluidRound times one RunHybrid/RunChurn call. The call is monolithic,
// so set-up is the result's own build timers, the window is the rest of
// the wall, and the runtime.* deltas span build and run together.
func fluidRound(cfg roundCfg, simS float64, call func() fluidOut) round {
	r := round{counts: map[string]float64{}, host: map[string]float64{}, simS: simS}
	rec := cfg.rec
	hd := startDeltas()
	rec.begin("run")
	t0 := time.Now()
	out := call()
	total := time.Since(t0).Seconds()
	b := out.buildMS
	r.setupS = (b[0] + b[1] + b[2]) / 1000
	r.windowS = total - r.setupS
	rec.synthetic([]string{"setup.topo", "setup.wire", "setup.flows", "window"}, []float64{b[0], b[1], b[2], r.windowS * 1000})
	rec.end()
	hd.finish(&r, float64(out.events))
	r.digest = out.digest
	r.counts["sim.events_per_sim_s"] = float64(out.events) / simS
	r.host["topo.build_fattree_ms"] = b[0]
	r.host["experiment.build_wire_ms"] = b[1]
	r.host["experiment.build_flows_ms"] = b[2]
	return r
}

var eventsField = regexp.MustCompile(`\|events=\d+`)

func hybridFluid(cfg roundCfg) round {
	p := experiment.DefaultParams()
	p.Seed = cfg.seed
	hp := experiment.DefaultHybridParams()
	// RunHybrid draws nothing random: the seed sets the per-flow demand
	// (within 1 % of nominal) and the swap instant (within 1 % of the
	// run around its middle), which changes every allocation but not
	// the amount of work.
	rng := sim.NewRNG(cfg.seed)
	if !cfg.tiny {
		hp.Arity, hp.FlowsPerHost, hp.CrossFlows, hp.FlowDemand = 48, 6, 8, 15e6
		hp.Duration, hp.Epoch = time.Second, 10*time.Millisecond
	}
	hp.FlowDemand *= 0.99 + 0.02*rng.Float64()
	hp.SwapAt = hp.Duration/2 + time.Duration((rng.Float64()-0.5)*float64(hp.Duration)/50)
	var res experiment.HybridResult
	r := fluidRound(cfg, hp.Duration.Seconds(), func() fluidOut {
		res = experiment.RunHybrid(p, hp)
		return fluidOut{
			digest:  eventsField.ReplaceAllString(res.Digest, ""),
			buildMS: [3]float64{res.BuildTopoMS, res.BuildWireMS, res.BuildFlowsMS},
			events:  res.Events,
		}
	})
	r.counts["traffic.fluid.flows"] = float64(res.Flows)
	r.counts["traffic.fluid.settles"] = float64(res.Settles)
	r.counts["traffic.fluid.promotions"] = float64(res.Promotions)
	r.counts["traffic.goodput_mbps"] = res.FluidDeliveredBits / r.simS / 1e6
	if res.FluidDeliveredBits <= 0 {
		r.failf("no fluid traffic delivered")
	}
	if !strings.Contains(res.RegionDigest, "cmp:a=0 ") {
		r.failf("honest region raised alarms: %s", res.RegionDigest)
	}
	return r
}

func churnFluid(cfg roundCfg) round {
	p := experiment.DefaultParams()
	p.Seed = cfg.seed
	hp := experiment.DefaultHybridParams()
	hp.SettleWorkers = 2
	if cfg.ref {
		hp.SettleWorkers = 1
	}
	if !cfg.tiny {
		hp.Arity, hp.FlowDemand = 60, 15e6
		hp.Duration, hp.Epoch = 250*time.Millisecond, 10*time.Millisecond
		hp.ChurnArrivals, hp.ChurnMeanBytes, hp.ChurnParetoFrac, hp.ChurnCrossFrac = 400_000, 37_500, 0.3, 0.02
	}
	var res experiment.ChurnResult
	r := fluidRound(cfg, hp.Duration.Seconds(), func() fluidOut {
		res = experiment.RunChurn(p, hp)
		return fluidOut{digest: res.Digest, buildMS: [3]float64{res.BuildTopoMS, res.BuildWireMS, 0}, events: res.Events}
	})
	r.counts["traffic.fluid.flows"] = float64(res.Arrivals)
	r.counts["traffic.fluid.settles"] = float64(res.Settles)
	r.counts["traffic.fluid.components_solved"] = float64(res.ComponentsSolved)
	r.counts["traffic.fluid.recycled"] = float64(res.Recycled)
	r.counts["traffic.fluid.peak_live"] = float64(res.PeakLive)
	r.counts["sim.wheel.expired"] = float64(res.WheelExpired)
	r.counts["traffic.goodput_mbps"] = res.DeliveredBits / r.simS / 1e6
	if res.DeliveredBits <= 0 || res.Arrivals == 0 {
		r.failf("no churn traffic delivered")
	}
	if res.Arrivals != res.Departures+uint64(res.EndLive) {
		r.failf("arrivals %d != departures %d + live %d", res.Arrivals, res.Departures, res.EndLive)
	}
	return r
}
