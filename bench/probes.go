package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"netco/internal/core"
	"netco/internal/experiment"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
	"netco/internal/traffic"
)

// Probes time one layer's public entry point in isolation, after the
// window, on frames captured from the workload itself. Replaying real
// frames with fresh IP IDs (rather than one repeated packet) keeps what
// real traffic does to the flow-table microcache: it never hits.

// errEmptyCapture is what every frame-replaying probe returns when the
// workload captured nothing; timing set-up instead would be silent.
var errEmptyCapture = errors.New("probe: empty capture")

// probeOps is how many operations a probe times after one warm pass of
// the same length.
const probeOps = 1 << 15

// cost is one probe's result per operation. events is how many
// scheduler events one operation executed, so callers can take the
// scheduler's own share out of an inclusive time.
type cost struct {
	ns, allocs, events float64
}

var probeSink uint64 // keeps results live so calls are not optimised away

// measure runs op for one warm pass and one timed pass of n operations
// each and returns the timed pass's mean wall time and heap allocations
// per operation.
func measure(n int, op func(i int)) cost {
	for i := 0; i < n; i++ {
		op(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(n + i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return cost{ns: float64(d) / float64(n), allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n)}
}

// freshen bumps a replayed frame's IP ID the way a host stamps every
// send, so no two passes present the same headers.
func freshen(p *packet.Packet) {
	if p.IP != nil {
		p.IP.ID += 4099
	}
}

func nopCall(_, _ any, _ int) {}

// probeSimFire times Scheduler.AtCall plus the Step that fires it, over
// a heap already holding depth far-future events (the workload's live
// event count at the end of its window).
func probeSimFire(depth int) cost {
	s := sim.NewScheduler()
	for i := 0; i < depth; i++ {
		s.AtCall(time.Hour+time.Duration(i), nopCall, nil, nil, 0)
	}
	c := measure(probeOps, func(int) {
		s.AtCall(s.Now()+time.Microsecond, nopCall, nil, nil, 0)
		s.Step()
	})
	c.events = 1
	return c
}

// probeTimerStop times arming an event, cancelling it with Timer.Stop
// and letting the scheduler discard the cancelled node: the RTO and
// delayed-ACK pattern of the TCP workload.
func probeTimerStop(depth int) cost {
	s := sim.NewScheduler()
	for i := 0; i < depth; i++ {
		s.AtCall(time.Hour+time.Duration(i), nopCall, nil, nil, 0)
	}
	return measure(probeOps, func(int) {
		at := s.Now() + time.Microsecond
		s.AtCall(at, nopCall, nil, nil, 0).Stop()
		s.RunUntil(at)
	})
}

// probeWheel times Wheel arm plus fire per timer, with lifetimes spread
// over 1-60 ms like the churn workload's departures.
func probeWheel() cost {
	s := sim.NewScheduler()
	w := sim.NewWheel(s, 100*time.Microsecond)
	const batch = 4096
	fired := 0
	fn := func() { fired++ }
	c := measure(probeOps/batch, func(int) {
		for i := 0; i < batch; i++ {
			w.After(time.Millisecond+time.Duration(i*14401%59000)*time.Microsecond, fn)
		}
		s.RunFor(100 * time.Millisecond)
	})
	probeSink += uint64(fired)
	c.ns /= batch
	c.allocs /= batch
	return c
}

// sinkNode swallows deliveries.
type sinkNode struct {
	name  string
	ports netem.Ports
	n     uint64
}

func (s *sinkNode) Name() string                    { return s.name }
func (s *sinkNode) Ports() *netem.Ports             { return &s.ports }
func (s *sinkNode) Receive(_ int, _ *packet.Packet) { s.n++ }

// probeLinkSend times Link.Send into a sink plus the transmit-done and
// delivery events it schedules, on a link configured like the
// workload's trunks.
func probeLinkSend(cfg netem.LinkConfig, frames []captured) (cost, error) {
	if len(frames) == 0 {
		return cost{}, errEmptyCapture
	}
	s := sim.NewScheduler()
	nw := netem.New(s)
	a, b := &sinkNode{name: "a"}, &sinkNode{name: "b"}
	nw.Add(a)
	nw.Add(b)
	l := nw.Connect(a, 0, b, 0, cfg)
	e0 := s.Executed()
	c := measure(probeOps, func(i int) {
		l.Send(0, frames[i%len(frames)].pkt)
		s.Run()
	})
	c.events = float64(s.Executed()-e0) / (2 * probeOps)
	if b.n == 0 {
		return cost{}, fmt.Errorf("probe: link delivered nothing")
	}
	return c, nil
}

// packetCosts are the codec's three entry points at the captured sizes.
type packetCosts struct {
	marshal, unmarshal, headerKey cost
}

func probePacket(frames []captured) (packetCosts, error) {
	if len(frames) == 0 {
		return packetCosts{}, errEmptyCapture
	}
	n := len(frames)
	wires := make([][]byte, n)
	for i, f := range frames {
		wires[i] = f.pkt.Marshal()
	}
	var pc packetCosts
	var buf []byte
	pc.marshal = measure(probeOps, func(i int) { buf = frames[i%n].pkt.MarshalInto(buf[:0]) })
	probeSink += uint64(len(buf))
	var perr error
	pc.unmarshal = measure(probeOps, func(i int) {
		p, err := packet.Unmarshal(wires[i%n])
		if err != nil {
			perr = err
			return
		}
		probeSink += uint64(p.Eth.EtherType)
	})
	pc.headerKey = measure(probeOps, func(i int) { probeSink += packet.HeaderKey(frames[i%n].pkt) })
	return pc, perr
}

// probeLookup times FlowTable.Lookup against the real table of the
// switch that carried each frame.
func probeLookup(frames []captured) (cost, error) {
	if len(frames) == 0 {
		return cost{}, errEmptyCapture
	}
	n := len(frames)
	miss := 0
	c := measure(probeOps, func(i int) {
		f := frames[i%n]
		freshen(f.pkt)
		if f.sw.Table().Lookup(0, f.pkt) == nil {
			miss++
		}
	})
	if miss > 0 {
		return cost{}, fmt.Errorf("probe: %d captured frames missed their own switch's table", miss)
	}
	return c, nil
}

// probePipeline times the switch receive pipeline — Receive, port
// accounting, Proc, lookup, action, transmit onto a trunk-like link —
// on a stand-alone switch carrying a copy of a workload switch's rules.
func probePipeline(trunk netem.LinkConfig, frames []captured) (cost, error) {
	if len(frames) == 0 {
		return cost{}, errEmptyCapture
	}
	p := experiment.DefaultParams()
	s := sim.NewScheduler()
	nw := netem.New(s)
	sw := switching.New(s, switching.Config{Name: "probe", ProcDelay: p.SwitchProc, ProcQueue: p.SwitchQueue})
	in, out := &sinkNode{name: "in"}, &sinkNode{name: "out"}
	nw.Add(sw)
	nw.Add(in)
	nw.Add(out)
	nw.Connect(in, 0, sw, 0, trunk)
	nw.Connect(out, 0, sw, 1, trunk)
	// Every rule of every capturing switch, all pointed at the one out
	// port: the table has the workload's size and mask shape.
	seen := map[*switching.Switch]bool{}
	for _, f := range frames {
		if seen[f.sw] {
			continue
		}
		seen[f.sw] = true
		for _, e := range f.sw.Table().Entries() {
			sw.Table().Add(&openflow.FlowEntry{Priority: e.Priority, Match: e.Match, Actions: []openflow.Action{openflow.Output(1)}})
		}
		if sw.Table().Len() >= 128 {
			break
		}
	}
	n := len(frames)
	e0 := s.Executed()
	c := measure(probeOps, func(i int) {
		f := frames[i%n]
		freshen(f.pkt)
		sw.Receive(0, f.pkt)
		s.Run()
	})
	c.events = float64(s.Executed()-e0) / (2 * probeOps)
	if out.n == 0 {
		return cost{}, fmt.Errorf("probe: switch forwarded nothing")
	}
	return c, nil
}

// coreCosts are the compare engine's two paths.
type coreCosts struct {
	ingestPerCopy  cost // one copy of a k=3 vote that releases
	expirePerEntry cost
}

// probeCore times core.Engine.Ingest with three copies per frame (the
// second releases, the third is late) and Expire retiring them, with
// the testbed's engine configuration.
func probeCore(frames []captured) (coreCosts, error) {
	if len(frames) == 0 {
		return coreCosts{}, errEmptyCapture
	}
	cfg := experiment.DefaultParams().TestbedParams(experiment.ScenCentral3, nil).Compare.Engine
	cfg.K = 3
	eng := core.NewEngine(cfg)
	n := len(frames)
	wires := make([][]byte, n)
	for i, f := range frames {
		wires[i] = f.pkt.Marshal()
	}
	// Expire every batch ingests, well under the cache capacity, so the
	// live population looks like the running compare's and a replayed
	// frame never meets its own earlier entry.
	const batch = 256
	var now time.Duration
	var expireNS, expired int64
	pass := 0
	c := measure(probeOps, func(i int) {
		w := wires[i%n]
		now += time.Microsecond
		eng.Ingest(now, 0, w, nil)
		eng.Ingest(now, 1, w, nil)
		eng.Ingest(now, 2, w, nil)
		if i%batch == batch-1 {
			now += cfg.HoldTimeout + time.Microsecond
			live := eng.Size()
			t0 := time.Now()
			eng.Expire(now)
			if i >= probeOps { // timed pass only
				expireNS += int64(time.Since(t0))
				expired += int64(live)
				pass++
			}
		}
	})
	st := eng.Stats()
	if st.Released == 0 || st.Suppressed != 0 {
		return coreCosts{}, fmt.Errorf("probe: engine released %d, suppressed %d", st.Released, st.Suppressed)
	}
	out := coreCosts{}
	out.expirePerEntry.ns = float64(expireNS) / float64(expired)
	out.ingestPerCopy.ns = (c.ns*probeOps - float64(expireNS)) / (3 * probeOps)
	out.ingestPerCopy.allocs = c.allocs / 3
	return out, nil
}

// fluidCosts are the fluid tier's probes.
type fluidCosts struct {
	settlePerComponent cost // incremental settle, small components
	startStop          cost // NewFlow+Start and Stop+Release per flow
	epochAllocs        float64
	bulkPerFlow        cost // one settle of one giant component
}

// probeFluid drives a FluidNet the two ways the fluid workloads do.
// Churn-like: groups of compSize flows share one bottleneck link, and
// every epoch each group retires one flow and starts another, so every
// settle re-solves one small component per group. Bulk: many flows
// coupled into one giant component settle once.
func probeFluid(compSize, workers int) fluidCosts {
	// About 4096 live flows whatever the component size.
	compSize = min(max(compSize, 1), 64)
	groups := 4096 / compSize
	const epochs = 16
	epoch := 10 * time.Millisecond
	link := netem.LinkConfig{Bandwidth: 1e9, Delay: 16 * time.Microsecond}
	s := sim.NewScheduler()
	fn := traffic.NewFluidNet(s, traffic.FluidConfig{Epoch: epoch, SettleWorkers: workers})
	// A pod-local path: source access link, the group's shared up and
	// down links, destination access link.
	mk := func(n int) []*netem.Link {
		ls := make([]*netem.Link, n)
		for i := range ls {
			ls[i] = netem.NewLink(s, "", link)
		}
		return ls
	}
	up, down := mk(groups), mk(groups)
	src, dst := mk(groups*compSize), mk(groups*compSize)
	live := make([]*traffic.FluidFlow, groups*compSize)
	hops := make([]traffic.Hop, 4)
	startFlow := func(slot int) {
		g := slot / compSize
		hops[0], hops[1] = traffic.Hop{Link: src[slot]}, traffic.Hop{Link: up[g]}
		hops[2], hops[3] = traffic.Hop{Link: down[g]}, traffic.Hop{Link: dst[slot]}
		live[slot] = fn.NewFlow(600e6, hops)
		live[slot].Start()
	}
	for slot := range live {
		startFlow(slot)
	}
	s.RunFor(epoch)

	var fc fluidCosts
	var apiNS, settleNS int64
	var m0, m1 runtime.MemStats
	for e := 0; e < 2*epochs; e++ {
		if e == epochs { // first half warms the arena and scratch
			apiNS, settleNS = 0, 0
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		for g := 0; g < groups; g++ {
			slot := g*compSize + e%compSize
			live[slot].Release()
			startFlow(slot)
		}
		t1 := time.Now()
		s.RunFor(epoch)
		apiNS += int64(t1.Sub(t0))
		settleNS += int64(time.Since(t1))
	}
	runtime.ReadMemStats(&m1)
	fn.Close()
	fc.startStop.ns = float64(apiNS) / float64(epochs*groups)
	fc.settlePerComponent.ns = float64(settleNS) / float64(epochs*groups)
	fc.epochAllocs = float64(m1.Mallocs-m0.Mallocs) / epochs

	// Bulk: flow i crosses access link i, one of 64 aggregation links
	// and one of 61 core links; the two coprime strides couple every
	// flow into a single component.
	const bulk = 1 << 15
	s2 := sim.NewScheduler()
	fn2 := traffic.NewFluidNet(s2, traffic.FluidConfig{Epoch: epoch, SettleWorkers: workers})
	mk2 := func(n int) []*netem.Link {
		ls := make([]*netem.Link, n)
		for i := range ls {
			ls[i] = netem.NewLink(s2, "", link)
		}
		return ls
	}
	acc, agg, cor := mk2(bulk), mk2(64), mk2(61)
	path := make([]traffic.Hop, 3)
	for i := 0; i < bulk; i++ {
		path[0], path[1], path[2] = traffic.Hop{Link: acc[i]}, traffic.Hop{Link: agg[i%64]}, traffic.Hop{Link: cor[i%61]}
		fn2.NewFlow(15e6, path).Start()
	}
	t0 := time.Now()
	s2.RunFor(epoch)
	fc.bulkPerFlow.ns = float64(time.Since(t0)) / bulk
	if fn2.Settles() != 1 || fn.Settles() < 2*epochs {
		panic(fmt.Sprintf("probe: fluid settles %d bulk, %d churn", fn2.Settles(), fn.Settles()))
	}
	fn2.Close()
	return fc
}
