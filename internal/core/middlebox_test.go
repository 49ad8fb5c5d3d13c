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

func buildInlineRig(t *testing.T, k int, compromise func(i int) switching.Behavior) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)
	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 10 * time.Microsecond, QueueLimit: 100}
	spec := core.CombinerSpec{
		K:    k,
		Mode: core.CombinerInline,
		Compare: core.CompareNodeConfig{
			Engine:      core.Config{HoldTimeout: 20 * time.Millisecond, CacheCapacity: 1 << 16},
			PerCopyCost: 2 * time.Microsecond,
		},
		EdgeProcDelay: time.Microsecond,
		RouterLink:    link,
		CompareLink:   netem.LinkConfig{Bandwidth: 2e9, Delay: 5 * time.Microsecond, QueueLimit: 200},
	}
	comb := core.Build(net, spec, func(i int) *switching.Switch {
		sw := switching.New(sched, switching.Config{Name: "r" + string(rune('0'+i)), ProcDelay: time.Microsecond, ProcQueue: 500})
		if compromise != nil {
			if b := compromise(i); b != nil {
				sw.SetBehavior(b)
			}
		}
		return sw
	})
	h1 := traffic.NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{EchoResponder: true})
	h2 := traffic.NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{EchoResponder: true})
	comb.AttachHost(net, core.SideLeft, h1, traffic.HostPort, h1.MAC(), link)
	comb.AttachHost(net, core.SideRight, h2, traffic.HostPort, h2.MAC(), link)
	return &rig{sched: sched, net: net, comb: comb, h1: h1, h2: h2}
}

func TestInlineDeliversExactlyOnce(t *testing.T) {
	r := buildInlineRig(t, 3, nil)
	defer r.comb.Close()
	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 20e6, PayloadSize: 1000})
	src.Start()
	r.sched.RunFor(200 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent || st.Duplicates != 0 {
		t.Fatalf("unique=%d dups=%d sent=%d", st.Unique, st.Duplicates, src.Sent)
	}
	// Copies were combined at the Right middlebox.
	if got := r.comb.Middleboxes[1].Stats().Combined; got != src.Sent {
		t.Fatalf("mb2 combined %d of %d", got, src.Sent)
	}
	// Delivered packets carry no attribution label.
	if r.h2.Stats().RxUnclaimed != 0 {
		t.Fatalf("%d unclaimed packets at h2", r.h2.Stats().RxUnclaimed)
	}
}

func TestInlinePreventsTamper(t *testing.T) {
	r := buildInlineRig(t, 3, func(i int) switching.Behavior {
		if i != 0 {
			return nil
		}
		return &adversary.Modify{
			Match:   openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
			Rewrite: []openflow.Action{openflow.SetNwTOS(0xfc)},
		}
	})
	defer r.comb.Close()
	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 10e6, PayloadSize: 500})
	src.Start()
	r.sched.RunFor(200 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(100 * time.Millisecond)

	if got := sink.Stats().Unique; got != src.Sent {
		t.Fatalf("delivered %d of %d", got, src.Sent)
	}
	if s := r.comb.Middleboxes[1].EngineStats().Suppressed; s == 0 {
		t.Fatal("tampered copies not suppressed")
	}
}

func TestInlineAttributionDefeatsSelfMajority(t *testing.T) {
	// A single malicious router replays each packet 3×. Without
	// attribution labels that would be an instant forged majority; with
	// them the copies all count against one router (and trip the DoS
	// detector).
	r := buildInlineRig(t, 3, func(i int) switching.Behavior {
		if i != 0 {
			return nil
		}
		return adversary.Chain{
			&adversary.Modify{
				Match:   openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
				Rewrite: []openflow.Action{openflow.SetNwTOS(0xfc)},
			},
			&adversary.Replay{Match: openflow.MatchAll().WithDlDst(packet.HostMAC(2)), Extra: 2},
		}
	})
	defer r.comb.Close()
	var dosAlarms int
	r.comb.Middleboxes[1].OnAlarm = func(a core.Alarm) {
		if a.Kind == core.EventDoS && a.Router == 0 {
			dosAlarms++
		}
	}
	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 10e6, PayloadSize: 500})
	src.Start()
	r.sched.RunFor(200 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent {
		t.Fatalf("delivered %d of %d", st.Unique, src.Sent)
	}
	// None of the forged-TOS copies may have been released.
	if st.Duplicates != 0 {
		t.Fatalf("%d duplicates leaked", st.Duplicates)
	}
	if dosAlarms == 0 {
		t.Fatal("self-majority replay not flagged as DoS")
	}
}

func TestInlinePingRTTBelowCentral(t *testing.T) {
	// The middlebox architecture removes the out-of-band detour, so its
	// RTT must sit strictly between Dup and Central.
	rtt := func(mode core.CombinerMode) time.Duration {
		var r *rig
		if mode == core.CombinerInline {
			r = buildInlineRig(t, 3, nil)
		} else {
			r = buildRig(t, 3, mode, nil)
		}
		defer r.comb.Close()
		p := traffic.NewPinger(r.h1, r.h2.Endpoint(0), traffic.PingerConfig{Count: 10, ID: 3})
		var res traffic.PingResult
		p.Run(func(pr traffic.PingResult) { res = pr })
		r.sched.RunFor(2 * time.Second)
		if res.Received != 10 {
			t.Fatalf("mode %v: received %d of 10", mode, res.Received)
		}
		return res.RTT.MeanDuration()
	}
	inline := rtt(core.CombinerInline)
	central := rtt(core.CombinerCentral)
	if inline >= central {
		t.Fatalf("inline RTT %v not below central %v", inline, central)
	}
}

func TestMiddleboxDropsUnattributed(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	mb := core.NewMiddlebox(sched, core.MiddleboxConfig{Name: "mb", K: 3, PerCopyCost: time.Microsecond})
	defer mb.Close()
	h := traffic.NewHost(sched, "h", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{})
	feeder := traffic.NewHost(sched, "f", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{})
	net.Connect(feeder, traffic.HostPort, mb, core.MiddleboxNetPort, netem.LinkConfig{})
	net.Connect(h, traffic.HostPort, mb, core.MiddleboxHostPort, netem.LinkConfig{})

	// Untagged and out-of-range tags must never be combined.
	plain := packet.NewUDP(feeder.Endpoint(1), h.Endpoint(2), []byte("x"))
	feeder.Send(plain)
	badTag := plain.Clone()
	badTag.Eth.VLAN = &packet.VLANTag{VID: 999}
	feeder.Send(badTag)
	sched.RunFor(10 * time.Millisecond)

	if got := mb.Stats().Unattributed; got != 2 {
		t.Fatalf("Unattributed = %d, want 2", got)
	}
	if h.Stats().RxPackets != 0 {
		t.Fatal("unattributed packets leaked to the host")
	}
}
