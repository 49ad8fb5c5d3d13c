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

// buildChain wires two combiners in series — Fig. 2's deployment, where
// *every* router on a path is replaced by a combiner: h1 – C1 – C2 – h2.
// compromise(c, i) selects a behavior for router i of combiner c.
func buildChain(t *testing.T, compromise func(c, i int) switching.Behavior) (*sim.Scheduler, []*core.Combiner, *traffic.Host, *traffic.Host) {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)
	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 10 * time.Microsecond, QueueLimit: 100}

	combs := make([]*core.Combiner, 2)
	for c := range combs {
		c := c
		spec := core.CombinerSpec{
			NamePrefix: []string{"a-", "b-"}[c],
			K:          3,
			Mode:       core.CombinerCentral,
			Compare: core.CompareNodeConfig{
				Engine:      core.Config{HoldTimeout: 20 * time.Millisecond, CacheCapacity: 1 << 16},
				PerCopyCost: 2 * time.Microsecond,
			},
			EdgeProcDelay: time.Microsecond,
			RouterLink:    link,
			CompareLink:   netem.LinkConfig{Bandwidth: 2e9, Delay: 5 * time.Microsecond, QueueLimit: 200},
		}
		combs[c] = core.Build(net, spec, func(i int) *switching.Switch {
			sw := switching.New(sched, switching.Config{
				Name:      spec.NamePrefix + "r" + string(rune('0'+i)),
				ProcDelay: time.Microsecond,
				ProcQueue: 500,
			})
			if compromise != nil {
				if b := compromise(c, i); b != nil {
					sw.SetBehavior(b)
				}
			}
			return sw
		})
	}

	h1 := traffic.NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{EchoResponder: true})
	h2 := traffic.NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{EchoResponder: true})

	// Outer attachments.
	combs[0].AttachHost(net, core.SideLeft, h1, traffic.HostPort, h1.MAC(), link)
	combs[1].AttachHost(net, core.SideRight, h2, traffic.HostPort, h2.MAC(), link)
	// Splice the combiners: C1's right host side ↔ C2's left host side.
	net.Connect(combs[0].Right, core.EdgeHostPort, combs[1].Left, core.EdgeHostPort, link)
	// Through-routes: each combiner must know both endpoints.
	combs[0].Right.AddRoute(h2.MAC(), core.EdgeHostPort)
	combs[0].InstallRoute(h2.MAC(), core.SideRight)
	combs[1].Left.AddRoute(h1.MAC(), core.EdgeHostPort)
	combs[1].InstallRoute(h1.MAC(), core.SideLeft)
	return sched, combs, h1, h2
}

func TestChainedCombinersDeliverExactlyOnce(t *testing.T) {
	sched, combs, h1, h2 := buildChain(t, nil)
	defer combs[0].Close()
	defer combs[1].Close()

	sink := traffic.NewUDPSink(h2, 5001)
	src := traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 20e6, PayloadSize: 900})
	src.Start()
	sched.RunFor(200 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent || st.Duplicates != 0 || st.Corrupted != 0 {
		t.Fatalf("unique=%d/%d dups=%d corrupted=%d", st.Unique, src.Sent, st.Duplicates, st.Corrupted)
	}
	// Both compares voted on every packet.
	for c, comb := range combs {
		if rel := comb.Compare.EngineStats().Released; rel != src.Sent {
			t.Fatalf("combiner %d released %d of %d", c, rel, src.Sent)
		}
	}
}

func TestChainedCombinersSurviveOneAttackerEach(t *testing.T) {
	// One compromised router inside *each* combiner, attacking
	// differently: drops in the first, VLAN rewrites in the second.
	sched, combs, h1, h2 := buildChain(t, func(c, i int) switching.Behavior {
		switch {
		case c == 0 && i == 1:
			return &adversary.Drop{Match: openflow.MatchAll().WithDlDst(packet.HostMAC(2))}
		case c == 1 && i == 2:
			return &adversary.Modify{
				Match:   openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
				Rewrite: []openflow.Action{openflow.SetVLANVID(666)},
			}
		}
		return nil
	})
	defer combs[0].Close()
	defer combs[1].Close()

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
	if s := combs[1].Compare.EngineStats().Suppressed; s == 0 {
		t.Fatal("second combiner suppressed nothing despite the rewriter")
	}
}

func TestChainedCombinersPing(t *testing.T) {
	sched, combs, h1, h2 := buildChain(t, nil)
	defer combs[0].Close()
	defer combs[1].Close()
	p := traffic.NewPinger(h1, h2.Endpoint(0), traffic.PingerConfig{Count: 10, ID: 4})
	var res traffic.PingResult
	p.Run(func(r traffic.PingResult) { res = r })
	sched.RunFor(2 * time.Second)
	if res.Received != 10 || res.Duplicates != 0 {
		t.Fatalf("received %d/10, %d dups", res.Received, res.Duplicates)
	}
	// Two compare detours per direction: RTT clearly above a single
	// combiner's on the same parameters.
	single := buildRig(t, 3, core.CombinerCentral, nil)
	defer single.comb.Close()
	sp := traffic.NewPinger(single.h1, single.h2.Endpoint(0), traffic.PingerConfig{Count: 10, ID: 4})
	var sres traffic.PingResult
	sp.Run(func(r traffic.PingResult) { sres = r })
	single.sched.RunFor(2 * time.Second)

	chained, one := res.RTT.MeanDuration(), sres.RTT.MeanDuration()
	if chained <= one+one/2 {
		t.Fatalf("chained RTT %v not clearly above single-combiner RTT %v", chained, one)
	}
}
