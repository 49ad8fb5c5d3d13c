package core_test

import (
	"testing"
	"time"

	"netco/internal/adversary"
	"netco/internal/core"
	"netco/internal/netem"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/sim"
	"netco/internal/switching"
	"netco/internal/traffic"
)

// buildMixedRig hand-wires a combiner whose candidates mix OpenFlow
// switches and a fixed-function legacy router — §IX: "our approach can
// easily be extended to legacy routers." candidates[i] builds router i.
func buildMixedRig(t *testing.T, candidates []func(sched *sim.Scheduler) switching.MACRouter) (*sim.Scheduler, *core.Combiner, *traffic.Host, *traffic.Host) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)
	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 10 * time.Microsecond, QueueLimit: 100}
	k := len(candidates)

	comb := &core.Combiner{K: k}
	comb.Left = core.NewEdgeSwitch(sched, core.EdgeConfig{Name: "s1", EdgeID: 0, ProcDelay: time.Microsecond})
	comb.Right = core.NewEdgeSwitch(sched, core.EdgeConfig{Name: "s2", EdgeID: 1, ProcDelay: time.Microsecond})

	h1 := traffic.NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{EchoResponder: true})
	h2 := traffic.NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{EchoResponder: true})

	for i, build := range candidates {
		r := build(sched)
		edgePort := 1 + i
		net.Connect(comb.Left, edgePort, r, core.RouterPortLeft, link)
		net.Connect(comb.Right, edgePort, r, core.RouterPortRight, link)
		comb.Left.AddRouterPort(edgePort, i)
		comb.Right.AddRouterPort(edgePort, i)
		r.AddMACRoute(h2.MAC(), core.RouterPortRight)
		r.AddMACRoute(h1.MAC(), core.RouterPortLeft)
	}

	comb.Compare = core.NewCompareNode(sched, core.CompareNodeConfig{
		Name:        "compare",
		Engine:      core.Config{K: k, HoldTimeout: 20 * time.Millisecond},
		PerCopyCost: 2 * time.Microsecond,
	})
	comparePort := 1 + k
	net.Connect(comb.Compare, 0, comb.Left, comparePort, link)
	net.Connect(comb.Compare, 1, comb.Right, comparePort, link)
	comb.Left.SetComparePort(comparePort)
	comb.Right.SetComparePort(comparePort)
	comb.Compare.RegisterEdge(0, comb.Left)
	comb.Compare.RegisterEdge(1, comb.Right)

	net.Connect(h1, traffic.HostPort, comb.Left, core.EdgeHostPort, link)
	net.Connect(h2, traffic.HostPort, comb.Right, core.EdgeHostPort, link)
	comb.Left.AddHostPort(core.EdgeHostPort, h1.MAC())
	comb.Right.AddHostPort(core.EdgeHostPort, h2.MAC())
	return sched, comb, h1, h2
}

func ofCandidate(name string, proc time.Duration, b switching.Behavior) func(*sim.Scheduler) switching.MACRouter {
	return func(sched *sim.Scheduler) switching.MACRouter {
		sw := switching.New(sched, switching.Config{Name: name, ProcDelay: proc, ProcQueue: 500})
		if b != nil {
			sw.SetBehavior(b)
		}
		return sw
	}
}

func legacyCandidate(name string, proc time.Duration) func(*sim.Scheduler) switching.MACRouter {
	return func(sched *sim.Scheduler) switching.MACRouter {
		return switching.NewLegacy(sched, name, proc, 500)
	}
}

func TestCombinerWithLegacyCandidate(t *testing.T) {
	// Two OpenFlow switches (one compromised) plus one legacy router:
	// the honest OF switch and the legacy box form the majority.
	sched, comb, h1, h2 := buildMixedRig(t, []func(*sim.Scheduler) switching.MACRouter{
		ofCandidate("of0", 2*time.Microsecond, nil),
		ofCandidate("of1", 2*time.Microsecond, &adversary.Modify{
			Match:   openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
			Rewrite: []openflow.Action{openflow.SetVLANVID(666)},
		}),
		legacyCandidate("cisco-legacy", 4*time.Microsecond),
	})
	defer comb.Close()

	sink := traffic.NewUDPSink(h2, 5001)
	src := traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 10e6, PayloadSize: 600})
	src.Start()
	sched.RunFor(200 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent || st.Duplicates != 0 || st.Corrupted != 0 {
		t.Fatalf("unique=%d/%d dups=%d corrupted=%d", st.Unique, src.Sent, st.Duplicates, st.Corrupted)
	}
	if s := comb.Compare.EngineStats().Suppressed; s == 0 {
		t.Fatal("compromised OF switch's rewrites not suppressed")
	}
}

func TestCombinerLatencyIsMedianCandidate(t *testing.T) {
	// With strongly heterogeneous candidate latencies, the combiner's
	// latency tracks the majority-th (here: second-fastest) candidate —
	// the compare releases as soon as ⌊k/2⌋+1 copies agree, so one slow
	// vendor does not drag the path down, and one fast one cannot speed
	// it up alone.
	rtt := func(procs [3]time.Duration) time.Duration {
		sched, comb, h1, h2 := buildMixedRig(t, []func(*sim.Scheduler) switching.MACRouter{
			ofCandidate("a", procs[0], nil),
			ofCandidate("b", procs[1], nil),
			legacyCandidate("c", procs[2]),
		})
		defer comb.Close()
		p := traffic.NewPinger(h1, h2.Endpoint(0), traffic.PingerConfig{Count: 10, ID: 9})
		var res traffic.PingResult
		p.Run(func(r traffic.PingResult) { res = r })
		sched.RunFor(2 * time.Second)
		if res.Received != 10 {
			t.Fatalf("received %d of 10", res.Received)
		}
		return res.RTT.MeanDuration()
	}

	uniform := rtt([3]time.Duration{10 * time.Microsecond, 10 * time.Microsecond, 10 * time.Microsecond})
	// One candidate 100× slower: latency must barely move.
	oneSlow := rtt([3]time.Duration{10 * time.Microsecond, 10 * time.Microsecond, time.Millisecond})
	if oneSlow > uniform+50*time.Microsecond {
		t.Fatalf("one slow candidate dragged RTT from %v to %v", uniform, oneSlow)
	}
	// Two slow candidates: now the median is slow and latency follows.
	twoSlow := rtt([3]time.Duration{10 * time.Microsecond, time.Millisecond, time.Millisecond})
	if twoSlow < oneSlow+time.Millisecond {
		t.Fatalf("two slow candidates should dominate: %v vs %v", twoSlow, oneSlow)
	}
}
