package main

import (
	"bytes"
	"encoding/json"
)

// This file is the benchmark's contract in table form: the workloads,
// the end-to-end metrics with their regression bounds, and every
// per-layer metric with the end-to-end metric and workloads it is
// expected to move. BENCHMARK.json is generated from these tables
// (schema_test.go pins the committed file to them), and run.go must
// emit exactly these names.

// runSeconds is BENCHMARK.json's run_seconds: how long one driver run
// measures. Rounds (one full scenario each: build, warm-up, window,
// drain) repeat until this much wall time has passed.
const runSeconds = 10

// benchCommand is how the driver starts one run, from the repo root.
var benchCommand = []string{"go", "run", "./bench"}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workload names are fixed; later issues cite them.
var workloadSpecs = []workloadSpec{
	{"central3_udp", "Fig. 3 testbed, Central3, one 100 Mbit/s x 1470 B UDP CBR flow: core (3 bit-exact copies per packet), packet (1.5 KB marshal) and netem do the work; openflow sees one mask"},
	{"central3_tcp", "same testbed, one closed-loop TCP flow: data and ACKs cross the compare (6 copies per segment), scheduler path is timer arm/cancel heavy (RTO, dup-ACK)"},
	{"fattree_udp", "8-ary fat tree, 128 hosts, 64 B UDP at 2441 pps per host, serial engine: bare forwarding at the smallest frame; switching, openflow (128-rule tables), netem and sim dominate, core idle"},
	{"fattree_udp_par2", "identical inputs on the partitioned engine (2 domains, 2 workers): same layers under the other execution seam; digest must equal fattree_udp's"},
	{"hybrid_fluid", "RunHybrid arity 48, 165888 fluid flows, 8 monitored: bulk fluid settle plus a fabric build that is about half the wall; where setup_s, peak_rss_mb, topo and experiment show"},
	{"churn_fluid", "RunChurn arity 60, 400k arrivals per sim-second, 2 settle workers: incremental settles over many small components, arena recycle and sim.Wheel departures"},
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// End-to-end metrics are host-side: what a user of the simulator pays.
// failed_frac is not listed because the driver's contract wants metrics
// that are never 0; it travels as attempted/failed on the result line.
// The two times are reported at the reference box's speed (calib.go);
// their bounds are as wide as the contract allows so that the spread
// left after that, 3-8 %, is about a third of the bound (see README,
// "Noise and the baseline").
var e2eMetrics = []e2eMetric{
	{"wall_s_per_sim_s", "s/s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// layerMetric is one per-layer metric. Count marks simulated counts that
// repeat exactly for a seed. Moves names the end-to-end metric the
// metric should move and On the workloads where it should ("none" when
// the value is pinned by the digest or is bookkeeping).
type layerMetric struct {
	Name   string
	Unit   string
	Better string
	Count  bool
	Moves  string
	On     string
}

const (
	wallM  = "wall_s_per_sim_s"
	setupM = "setup_s"
	rssM   = "peak_rss_mb"

	onPacket  = "central3_udp,central3_tcp,fattree_udp,fattree_udp_par2"
	onCentral = "central3_udp,central3_tcp"
	onFattree = "fattree_udp,fattree_udp_par2"
	onAll     = onPacket + ",hybrid_fluid,churn_fluid"
)

var layerMetrics = []layerMetric{
	// sim
	{"sim.events_per_sim_s", "1/s", "lower", true, wallM, onPacket},
	{"sim.events_per_wall_s", "1/s", "higher", false, wallM, onPacket},
	{"sim.at_fire_ns", "ns", "lower", false, wallM, onPacket},
	{"sim.at_fire_allocs", "count", "lower", false, wallM, onPacket},
	{"sim.timer_stop_ns", "ns", "lower", false, wallM, "central3_tcp"},
	{"sim.est_share", "frac", "lower", false, wallM, onPacket},
	// sim.wheel
	{"sim.wheel.expired", "count", "lower", true, wallM, "churn_fluid"},
	{"sim.wheel.arm_fire_ns", "ns", "lower", false, wallM, "churn_fluid"},
	{"sim.wheel.est_share", "frac", "lower", false, wallM, "churn_fluid"},
	// sim.par
	{"sim.par.speedup_p2", "x", "higher", false, wallM, "fattree_udp_par2"},
	{"sim.par.cpu_overhead_frac", "frac", "lower", false, wallM, "fattree_udp_par2"},
	// netem
	{"netem.link_tx_packets", "count", "lower", true, wallM, onPacket},
	{"netem.link_drops", "count", "lower", true, "none", "none"},
	{"netem.proc_processed", "count", "lower", true, wallM, onPacket},
	{"netem.proc_dropped", "count", "lower", true, "none", "none"},
	{"netem.link_send_ns", "ns", "lower", false, wallM, onPacket},
	{"netem.link_send_allocs", "count", "lower", false, wallM, onPacket},
	{"netem.est_share", "frac", "lower", false, wallM, onPacket},
	// packet
	{"packet.marshal_ns", "ns", "lower", false, wallM, onCentral},
	{"packet.unmarshal_ns", "ns", "lower", false, wallM, onCentral},
	{"packet.headerkey_ns", "ns", "lower", false, wallM, onFattree},
	{"packet.marshal_allocs", "count", "lower", false, wallM, onCentral},
	{"packet.est_share", "frac", "lower", false, wallM, onCentral},
	// openflow
	{"openflow.lookups", "count", "lower", true, wallM, onFattree},
	{"openflow.microflow_hit_rate", "frac", "higher", true, wallM, onFattree},
	{"openflow.mask_probes_per_lookup", "count", "lower", true, wallM, onFattree},
	{"openflow.misses", "count", "lower", true, "none", "none"},
	{"openflow.lookup_ns", "ns", "lower", false, wallM, onFattree},
	{"openflow.lookup_allocs", "count", "lower", false, wallM, onFattree},
	{"openflow.rule_install_ms", "ms", "lower", false, setupM, onFattree},
	{"openflow.est_share", "frac", "lower", false, wallM, onFattree},
	// switching
	{"switching.rx_packets", "count", "lower", true, wallM, onFattree},
	{"switching.pipeline_ns", "ns", "lower", false, wallM, onFattree},
	{"switching.pipeline_allocs", "count", "lower", false, wallM, onFattree},
	{"switching.est_share", "frac", "lower", false, wallM, onFattree},
	// core
	{"core.ingested", "count", "lower", true, wallM, onCentral},
	{"core.released", "count", "higher", true, "none", "none"},
	{"core.late_copies", "count", "lower", true, "none", "none"},
	{"core.suppressed", "count", "lower", true, "none", "none"},
	{"core.cleanup_passes", "count", "lower", true, wallM, onCentral},
	{"core.cleanup_scanned", "count", "lower", true, wallM, onCentral},
	{"core.ingest_drops", "count", "lower", true, "none", "none"},
	{"core.alarms", "count", "lower", true, "none", "none"},
	{"core.release_ratio", "frac", "higher", true, "none", "none"},
	{"core.ingest_ns_per_copy", "ns", "lower", false, wallM, onCentral},
	{"core.ingest_allocs", "count", "lower", false, wallM, onCentral},
	{"core.expire_ns", "ns", "lower", false, wallM, onCentral},
	{"core.est_share", "frac", "lower", false, wallM, onCentral},
	// traffic: simulated outputs, pinned by the digest
	{"traffic.goodput_mbps", "Mbit/s", "higher", true, "none", "none"},
	{"traffic.udp_unique", "count", "higher", true, "none", "none"},
	{"traffic.udp_lost_frac", "frac", "lower", true, "none", "none"},
	{"traffic.tcp_retransmits", "count", "lower", true, "none", "none"},
	{"traffic.tcp_timeouts", "count", "lower", true, "none", "none"},
	{"traffic.tcp_dup_acks", "count", "lower", true, "none", "none"},
	{"traffic.sim_out_changed", "flag", "lower", true, "none", "none"},
	{"traffic.paper_err_frac", "frac", "lower", true, "none", "none"},
	// traffic.fluid
	{"traffic.fluid.flows", "count", "lower", true, wallM, "hybrid_fluid,churn_fluid"},
	{"traffic.fluid.settles", "count", "lower", true, wallM, "hybrid_fluid,churn_fluid"},
	{"traffic.fluid.components_solved", "count", "lower", true, wallM, "churn_fluid"},
	{"traffic.fluid.recycled", "count", "higher", true, rssM, "churn_fluid"},
	{"traffic.fluid.peak_live", "count", "lower", true, rssM, "churn_fluid"},
	{"traffic.fluid.promotions", "count", "lower", true, "none", "none"},
	{"traffic.fluid.settle_ns_per_component", "ns", "lower", false, wallM, "churn_fluid"},
	{"traffic.fluid.bulk_settle_ns_per_flow", "ns", "lower", false, wallM, "hybrid_fluid"},
	{"traffic.fluid.start_stop_ns", "ns", "lower", false, wallM, "churn_fluid"},
	{"traffic.fluid.churn_epoch_allocs", "count", "lower", false, wallM, "churn_fluid"},
	{"traffic.fluid.settle_speedup_w2", "x", "higher", false, wallM, "churn_fluid"},
	{"traffic.fluid.est_share", "frac", "lower", false, wallM, "hybrid_fluid,churn_fluid"},
	// topo, experiment
	{"topo.build_fattree_ms", "ms", "lower", false, setupM, "hybrid_fluid,churn_fluid,fattree_udp,fattree_udp_par2"},
	{"topo.build_testbed_ms", "ms", "lower", false, setupM, onCentral},
	{"experiment.build_wire_ms", "ms", "lower", false, setupM, "hybrid_fluid,churn_fluid"},
	{"experiment.build_flows_ms", "ms", "lower", false, setupM, "hybrid_fluid"},
	// runtime
	{"runtime.cpu_s_per_sim_s", "s/s", "lower", false, wallM, onAll},
	{"runtime.alloc_mb_per_sim_s", "MB/s", "lower", false, wallM, onAll},
	{"runtime.mallocs_per_event", "count", "lower", false, wallM, onPacket},
	{"runtime.gc_cycles", "count", "lower", false, wallM, onAll},
	{"runtime.gc_pause_ms", "ms", "lower", false, wallM, onAll},
	{"runtime.heap_inuse_end_mb", "MB", "lower", false, rssM, "hybrid_fluid,churn_fluid"},
	{"runtime.host_factor", "x", "lower", false, "none", "none"},
	// trace
	{"trace.overhead_frac", "frac", "lower", false, "none", "none"},
	{"trace.unattributed_share", "frac", "lower", false, "none", "none"},
}

// notCovered is repeated in baseline.json and the README so nobody
// reads a gain into something the benchmark does not run.
var notCovered = []string{
	"no impaired-link, chaos, POX3/controller or fuzzer workload",
	"sim/par internals (epochs, mailbox hand-offs, barrier idle) are invisible from outside until the engine exposes them",
	"compare node and edge switch wrappers, host stacks and GC are not probed separately; they appear in trace.unattributed_share",
}

type namedMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkFile is BENCHMARK.json: exactly the keys the driver reads.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []e2eMetric    `json:"end_to_end"`
	PerLayer   []namedMetric  `json:"per_layer"`
}

func benchmarkSpec() benchmarkFile {
	per := make([]namedMetric, len(layerMetrics))
	for i, m := range layerMetrics {
		per[i] = namedMetric{m.Name, m.Unit, m.Better}
	}
	return benchmarkFile{
		Command:    benchCommand,
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   e2eMetrics,
		PerLayer:   per,
	}
}

// marshalIndented renders v the way every file the bench writes is
// rendered: two-space indent, no HTML escaping, trailing newline.
func marshalIndented(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		panic(err) // only plain structs and maps are ever passed
	}
	return b.Bytes()
}
