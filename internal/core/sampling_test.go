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

func buildSamplingRig(t *testing.T, sampleRate int, compromise func(i int) switching.Behavior) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)
	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 10 * time.Microsecond, QueueLimit: 100}
	spec := core.CombinerSpec{
		K:          3,
		Mode:       core.CombinerSampling,
		SampleRate: sampleRate,
		Compare: core.CompareNodeConfig{
			Engine:      core.Config{HoldTimeout: 10 * time.Millisecond, CacheCapacity: 1 << 16},
			PerCopyCost: 5 * time.Microsecond,
		},
		EdgeProcDelay: time.Microsecond,
		RouterLink:    link,
		CompareLink:   link,
	}
	comb := core.Build(net, spec, func(i int) *switching.Switch {
		sw := switching.New(sched, switching.Config{Name: "r" + string(rune('0'+i)), ProcDelay: time.Microsecond})
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

func TestSamplingForwardsWithoutCompareLatency(t *testing.T) {
	r := buildSamplingRig(t, 16, nil)
	defer r.comb.Close()
	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 20e6, PayloadSize: 800})
	src.Start()
	r.sched.RunFor(200 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(50 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent {
		t.Fatalf("delivered %d of %d on the fast path", st.Unique, src.Sent)
	}
	if st.Duplicates != 0 {
		t.Fatalf("%d duplicates leaked (compare releases must be swallowed)", st.Duplicates)
	}
	// Only ≈1/16 of packets hit the compare, ≈3 copies each.
	es := r.comb.Compare.EngineStats()
	maxExpected := 3 * (src.Sent/16 + src.Sent/8) // generous headroom
	if es.Ingested == 0 || es.Ingested > maxExpected {
		t.Fatalf("compare ingested %d copies of %d packets at rate 1/16", es.Ingested, src.Sent)
	}
}

func TestSamplingDetectsTamperer(t *testing.T) {
	// The primary (fast-path) router is honest; router 1 tampers with
	// payload-bound TOS. Sampled packets expose it.
	r := buildSamplingRig(t, 8, func(i int) switching.Behavior {
		if i != 1 {
			return nil
		}
		return &adversary.Modify{
			Match:   openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
			Rewrite: []openflow.Action{openflow.SetNwTOS(0xfc)},
		}
	})
	defer r.comb.Close()

	detections := 0
	r.comb.Compare.OnAlarm = func(a core.Alarm) {
		if a.Kind == core.EventDetection {
			detections++
		}
	}
	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 20e6, PayloadSize: 800})
	src.Start()
	r.sched.RunFor(300 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(100 * time.Millisecond)

	if got := sink.Stats().Unique; got != src.Sent {
		t.Fatalf("delivered %d of %d (fast path must be unaffected)", got, src.Sent)
	}
	if detections == 0 {
		t.Fatal("sampling never detected the tampering router")
	}
}

func TestSamplingMissesNothingWhenRateIsOne(t *testing.T) {
	// SampleRate 1 degenerates to full detection coverage.
	r := buildSamplingRig(t, 1, func(i int) switching.Behavior {
		if i != 2 {
			return nil
		}
		return &adversary.Drop{Match: openflow.MatchAll()}
	})
	defer r.comb.Close()
	detections := 0
	r.comb.Compare.OnAlarm = func(a core.Alarm) {
		if a.Kind == core.EventDetection {
			detections++
		}
	}
	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 10e6, PayloadSize: 500})
	src.Start()
	r.sched.RunFor(100 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(100 * time.Millisecond)

	if got := sink.Stats().Unique; got != src.Sent {
		t.Fatalf("delivered %d of %d", got, src.Sent)
	}
	if detections < int(src.Sent/2) {
		t.Fatalf("detections = %d for %d dropped packets at rate 1", detections, src.Sent)
	}
}

// TestSamplingCoverageScalesWithRate is the §IX trade-off: the sampling
// fraction buys proportionally more independent detection evidence (and,
// in expectation, proportionally lower detection latency — asserted here
// via evidence counts, which are deterministic, rather than first-alarm
// times, which quantise to sweep boundaries).
func TestSamplingCoverageScalesWithRate(t *testing.T) {
	detections := func(rate int) int {
		r := buildSamplingRig(t, rate, func(i int) switching.Behavior {
			if i != 1 {
				return nil
			}
			return &adversary.Drop{Match: openflow.MatchAll()}
		})
		defer r.comb.Close()
		n := 0
		r.comb.Compare.OnAlarm = func(a core.Alarm) {
			if a.Kind == core.EventDetection {
				n++
			}
		}
		src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 10e6, PayloadSize: 500})
		src.Start()
		r.sched.RunFor(time.Second)
		src.Stop()
		r.sched.RunFor(100 * time.Millisecond)
		if n == 0 {
			t.Fatalf("rate 1/%d never detected the dropper", rate)
		}
		return n
	}
	full := detections(1)
	sparse := detections(64)
	if full < 8*sparse {
		t.Fatalf("evidence at 1/1 (%d) not ≫ evidence at 1/64 (%d)", full, sparse)
	}
}
