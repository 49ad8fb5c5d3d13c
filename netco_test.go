package netco_test

import (
	"testing"
	"time"

	"netco"
)

// TestFacadeQuickstart exercises the public API end to end: build a
// combiner with one compromised router, push traffic, assert the
// combiner's guarantee — the README example, as a test.
func TestFacadeQuickstart(t *testing.T) {
	sched := netco.NewScheduler()
	net := netco.NewNetwork(sched)
	link := netco.LinkConfig{Bandwidth: 500e6, Delay: 16 * time.Microsecond, QueueLimit: 100}

	comb := netco.BuildCombiner(net, netco.CombinerSpec{
		K:    3,
		Mode: netco.CombinerCentral,
		Compare: netco.CompareNodeConfig{
			Engine:      netco.CompareConfig{HoldTimeout: 20 * time.Millisecond},
			PerCopyCost: 15 * time.Microsecond,
		},
		EdgeProcDelay: 2 * time.Microsecond,
		RouterLink:    link,
		CompareLink:   netco.LinkConfig{Bandwidth: 2e9, Delay: 16 * time.Microsecond, QueueLimit: 400},
	}, func(i int) *netco.Switch {
		return netco.NewSwitch(sched, netco.SwitchConfig{Name: string(rune('a' + i)), ProcDelay: 2 * time.Microsecond})
	})
	defer comb.Close()

	h1 := netco.NewHost(sched, "h1", netco.HostMAC(1), netco.HostIP(1), netco.HostConfig{EchoResponder: true})
	h2 := netco.NewHost(sched, "h2", netco.HostMAC(2), netco.HostIP(2), netco.HostConfig{EchoResponder: true})
	comb.AttachHost(net, netco.SideLeft, h1, 0, h1.MAC(), link)
	comb.AttachHost(net, netco.SideRight, h2, 0, h2.MAC(), link)

	comb.Routers[1].SetBehavior(netco.Chain{
		&netco.Drop{Match: netco.MatchAll(), Probability: 0.5, Rng: netco.NewRNG(42)},
		&netco.Modify{Match: netco.MatchAll(), Rewrite: []netco.Action{netco.SetVLANVID(666)}},
	})

	sink := netco.NewUDPSink(h2, 9000)
	src := netco.NewUDPSource(h1, 9000, h2.Endpoint(9000), netco.UDPSourceConfig{
		Rate: 20e6, PayloadSize: 1000,
	})
	src.Start()
	sched.RunFor(200 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent || st.Duplicates != 0 || st.Corrupted != 0 {
		t.Fatalf("combiner guarantee violated: unique=%d/%d dups=%d corrupted=%d",
			st.Unique, src.Sent, st.Duplicates, st.Corrupted)
	}
}

// TestFacadeDeterminism runs the same facade-level simulation twice and
// requires identical results.
func TestFacadeDeterminism(t *testing.T) {
	run := func() (uint64, float64) {
		p := netco.DefaultParams().Quick()
		r := netco.RunTCP(p, netco.Central3)
		u := netco.RunUDPMax(p, netco.Central3)
		return uint64(r.FastRetransmits), u.Mbps
	}
	fr1, m1 := run()
	fr2, m2 := run()
	if fr1 != fr2 || m1 != m2 {
		t.Fatalf("facade runs diverge: (%d,%f) vs (%d,%f)", fr1, m1, fr2, m2)
	}
}

// TestPaperTable1Published sanity-checks the embedded published values.
func TestPaperTable1Published(t *testing.T) {
	if len(netco.PaperTable1) != 5 {
		t.Fatalf("PaperTable1 rows = %d, want 5", len(netco.PaperTable1))
	}
	if netco.PaperTable1[0].TCPMbps != 474 {
		t.Fatalf("Linespeed paper TCP = %v, want 474", netco.PaperTable1[0].TCPMbps)
	}
}
