package experiment

import (
	"fmt"
	"strings"
	"time"

	"netco/internal/sim/par"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// ScaleResult is one run of the fat-tree scaling workload — the
// benchmark the parallel engine is sized against, and the differential
// determinism suite's fat-tree subject.
type ScaleResult struct {
	Arity      int    `json:"arity"`
	Hosts      int    `json:"hosts"`
	Partitions int    `json:"partitions"`
	Workers    int    `json:"workers"`
	Events     uint64 `json:"events"`
	// Digest canonically summarises every sink's counters plus the
	// total event count; serial and parallel runs of the same inputs
	// must produce equal digests.
	Digest string `json:"digest"`

	// Host-side readings. They depend on the wall clock, so they are
	// not serialised and never enter Digest: BuildWall covers fabric,
	// hosts and rule install, RunWall the traffic and drain; Engine is
	// the partitioned engine's own counters (zero on the serial engine).
	BuildWall time.Duration `json:"-"`
	RunWall   time.Duration `json:"-"`
	Engine    par.Stats     `json:"-"`
}

// RunScale drives cross-pod UDP over a full k-ary fat tree: k/2 hosts
// per edge switch, each streaming to the same slot in the opposite pod,
// so every flow crosses edge → agg → core → agg → edge. Partitioning
// (from p.Partitions) splits the fabric into one domain per pod plus one
// per core group.
func RunScale(p Params, arity int, duration time.Duration) ScaleResult {
	t0 := time.Now()
	w := topo.Open(p.Partitions, p.Workers, topo.Cut{
		Units:  arity + arity/2, // one per pod, one per core group
		Delay:  p.PropDelay,
		Assign: func(domains int) func(string) int { return topo.FatTreeAssign(arity, domains) },
	})
	net, runner := w.Net, w.Runner

	fb := buildFluidFabric(net, p, arity)
	fb.installRoutes()
	hosts, perPod := fb.hosts, fb.perPod

	// Every host streams UDP to its slot-twin in the opposite pod.
	sinks := make([]*traffic.UDPSink, len(hosts))
	srcs := make([]*traffic.UDPSource, len(hosts))
	for g, h := range hosts {
		sinks[g] = traffic.NewUDPSink(h, 7000)
	}
	for g, h := range hosts {
		pod := g / perPod
		partner := ((pod+arity/2)%arity)*perPod + g%perPod
		srcs[g] = traffic.NewUDPSource(h, uint16(6000+g), hosts[partner].Endpoint(7000),
			traffic.UDPSourceConfig{Rate: 10e6, PayloadSize: 512})
	}

	w.Wired()
	built := time.Now()
	for _, s := range srcs {
		s.Start()
	}
	runner.RunFor(duration)
	for _, s := range srcs {
		s.Stop()
	}
	runner.RunFor(20 * time.Millisecond) // drain in-flight datagrams
	runWall := time.Since(built)
	var engine par.Stats
	if w.Engine != nil {
		engine = w.Engine.Stats()
	}

	var b strings.Builder
	for g := range hosts {
		st := sinks[g].Stats()
		fmt.Fprintf(&b, "%d:%d/%d u=%d b=%d d=%d r=%d;", g, srcs[g].Sent, srcs[g].SentBytes,
			st.Unique, st.UniqueBytes, st.Duplicates, st.Reordered)
	}
	fmt.Fprintf(&b, "exec=%d now=%d", runner.Executed(), runner.Now())
	return ScaleResult{
		Arity:      arity,
		Hosts:      len(hosts),
		Partitions: w.Domains(),
		Workers:    p.Workers,
		Events:     runner.Executed(),
		Digest:     b.String(),
		BuildWall:  built.Sub(t0),
		RunWall:    runWall,
		Engine:     engine,
	}
}
