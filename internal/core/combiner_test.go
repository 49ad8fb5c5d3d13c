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

type rig struct {
	sched *sim.Scheduler
	net   *netem.Network
	comb  *core.Combiner
	h1    *traffic.Host
	h2    *traffic.Host
}

func buildRig(t *testing.T, k int, mode core.CombinerMode, compromise func(i int) switching.Behavior) *rig {
	t.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched)

	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 10 * time.Microsecond, QueueLimit: 100}
	spec := core.CombinerSpec{
		K:    k,
		Mode: mode,
		Compare: core.CompareNodeConfig{
			Engine:          core.Config{HoldTimeout: 20 * time.Millisecond, CacheCapacity: 1 << 16},
			PerCopyCost:     2 * time.Microsecond,
			CleanupPerEntry: 100 * time.Nanosecond,
			BlockDuration:   100 * time.Millisecond,
		},
		EdgeProcDelay: time.Microsecond,
		RouterLink:    link,
		CompareLink:   netem.LinkConfig{Bandwidth: 2e9, Delay: 5 * time.Microsecond, QueueLimit: 200},
	}
	comb := core.Build(net, spec, func(i int) *switching.Switch {
		sw := switching.New(sched, switching.Config{
			Name:       "r" + string(rune('0'+i)),
			DatapathID: uint64(i + 1),
			ProcDelay:  2 * time.Microsecond,
			ProcQueue:  500,
		})
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

func TestCentral3DeliversExactlyOnce(t *testing.T) {
	r := buildRig(t, 3, core.CombinerCentral, nil)
	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{
		Rate: 20e6, PayloadSize: 1000,
	})
	src.Start()
	r.sched.RunUntil(500 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent {
		t.Fatalf("delivered %d of %d", st.Unique, src.Sent)
	}
	if st.Duplicates != 0 {
		t.Fatalf("combiner leaked %d duplicates — compare must release exactly one copy", st.Duplicates)
	}
	es := r.comb.Compare.EngineStats()
	if es.Released != src.Sent {
		t.Fatalf("compare released %d of %d", es.Released, src.Sent)
	}
	// Every benign packet eventually shows up on all 3 ports; the extra
	// copies beyond majority are late.
	if es.Ingested != 3*src.Sent {
		t.Fatalf("compare ingested %d copies, want %d", es.Ingested, 3*src.Sent)
	}
}

func TestDup3DeliversKCopies(t *testing.T) {
	r := buildRig(t, 3, core.CombinerDup, nil)
	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{
		Rate: 10e6, PayloadSize: 1000,
	})
	src.Start()
	r.sched.RunUntil(200 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent {
		t.Fatalf("delivered %d of %d", st.Unique, src.Sent)
	}
	if st.Duplicates != 2*src.Sent {
		t.Fatalf("duplicates = %d, want %d (k-1 extra copies each)", st.Duplicates, 2*src.Sent)
	}
}

func TestCentralPingBothDirections(t *testing.T) {
	r := buildRig(t, 3, core.CombinerCentral, nil)
	p := traffic.NewPinger(r.h1, r.h2.Endpoint(0), traffic.PingerConfig{Count: 20, ID: 1})
	var res traffic.PingResult
	p.Run(func(pr traffic.PingResult) { res = pr })
	r.sched.RunUntil(2 * time.Second)
	if res.Received != 20 {
		t.Fatalf("received %d of 20 echo replies", res.Received)
	}
	if res.Duplicates != 0 {
		t.Fatalf("%d duplicate replies through a combining path", res.Duplicates)
	}
}

func TestCombinerPreventsRerouteExfiltration(t *testing.T) {
	// One router rewrites dst MAC and misroutes — §IV case 1. With k=3
	// the two honest copies win and nothing leaks past the compare.
	r := buildRig(t, 3, core.CombinerCentral, func(i int) switching.Behavior {
		if i != 1 {
			return nil
		}
		return &adversary.Modify{
			Match:   openflow.MatchAll().WithDlDst(packet.HostMAC(2)),
			Rewrite: []openflow.Action{openflow.SetVLANVID(666)},
		}
	})
	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{
		Rate: 10e6, PayloadSize: 500,
	})
	src.Start()
	r.sched.RunUntil(200 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(100 * time.Millisecond)

	if got := sink.Stats().Unique; got != src.Sent {
		t.Fatalf("delivered %d of %d despite 2 honest routers", got, src.Sent)
	}
	es := r.comb.Compare.EngineStats()
	if es.Suppressed == 0 {
		t.Fatal("tampered copies were not suppressed")
	}
	// The tampered copies stay minority entries and must never release.
	if es.Released != src.Sent {
		t.Fatalf("released %d, want %d", es.Released, src.Sent)
	}
}

func TestCombinerPreventsDropAttack(t *testing.T) {
	// One router drops everything; majority still delivers.
	r := buildRig(t, 3, core.CombinerCentral, func(i int) switching.Behavior {
		if i != 2 {
			return nil
		}
		return &adversary.Drop{Match: openflow.MatchAll()}
	})
	var alarms []core.Alarm
	r.comb.Compare.OnAlarm = func(a core.Alarm) { alarms = append(alarms, a) }

	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{
		Rate: 10e6, PayloadSize: 500,
	})
	src.Start()
	r.sched.RunUntil(300 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(100 * time.Millisecond)

	if got := sink.Stats().Unique; got != src.Sent {
		t.Fatalf("delivered %d of %d", got, src.Sent)
	}
	// §IV case 3: the silent router must raise an operator alarm.
	silent := false
	for _, a := range alarms {
		if a.Kind == core.EventPortSilent && a.Router == 2 {
			silent = true
		}
	}
	if !silent {
		t.Fatalf("no port-silent alarm for the dropping router (alarms: %+v)", alarms)
	}
}

func TestCombinerDoSBlocksPort(t *testing.T) {
	// One router replays every packet many times — §IV case 2. The
	// compare must flag it and advise the edge to block the port, and
	// the flood must not reach h2.
	r := buildRig(t, 3, core.CombinerCentral, func(i int) switching.Behavior {
		if i != 0 {
			return nil
		}
		return &adversary.Replay{Match: openflow.MatchAll(), Extra: 10}
	})
	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{
		Rate: 5e6, PayloadSize: 500,
	})
	src.Start()
	r.sched.RunUntil(200 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Duplicates != 0 {
		t.Fatalf("%d flood copies leaked to the destination", st.Duplicates)
	}
	if st.Unique != src.Sent {
		t.Fatalf("delivered %d of %d", st.Unique, src.Sent)
	}
	cs := r.comb.Compare.Stats()
	if cs.Blocks == 0 {
		t.Fatal("compare never advised a port block")
	}
	if r.comb.Right.Stats().BlockedDrops == 0 {
		t.Fatal("edge never enforced the advised block")
	}
	if r.comb.Compare.EngineStats().DoSFlagged == 0 {
		t.Fatal("DoS never flagged")
	}
}

func TestCombinerSuppressesUnsolicitedInjection(t *testing.T) {
	// A compromised router fabricates packets out of thin air (§II:
	// "fabricate and transmit any type of message"). None may pass.
	r := buildRig(t, 3, core.CombinerCentral, nil)
	evil := r.comb.Routers[1]
	forged := packet.NewUDP(
		packet.Endpoint{MAC: packet.HostMAC(66), IP: packet.HostIP(66), Port: 9},
		packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 5001},
		[]byte("forged"),
	)
	flood := &adversary.Flood{
		OutPort:  core.RouterPortRight,
		Rate:     10000,
		Template: forged,
		Vary:     true,
		Duration: 100 * time.Millisecond,
	}
	evil.SetBehavior(flood)

	sink := traffic.NewUDPSink(r.h2, 5001)
	r.sched.RunUntil(300 * time.Millisecond)

	if flood.Injected == 0 {
		t.Fatal("flood generated nothing")
	}
	if got := sink.Stats().Unique + sink.Stats().Duplicates; got != 0 {
		t.Fatalf("%d forged packets reached h2", got)
	}
	if s := r.comb.Compare.EngineStats().Suppressed; s == 0 {
		t.Fatal("forged packets not accounted as suppressed")
	}
}

func TestDetectOnlyK2RaisesDetectionAlarm(t *testing.T) {
	sched := sim.NewScheduler()
	net := netem.New(sched)
	link := netem.LinkConfig{Bandwidth: 500e6, Delay: 10 * time.Microsecond, QueueLimit: 100}
	spec := core.CombinerSpec{
		K:    2,
		Mode: core.CombinerCentral,
		Compare: core.CompareNodeConfig{
			Engine:      core.Config{HoldTimeout: 10 * time.Millisecond, DetectOnly: true},
			PerCopyCost: 2 * time.Microsecond,
		},
		RouterLink:  link,
		CompareLink: link,
	}
	comb := core.Build(net, spec, func(i int) *switching.Switch {
		sw := switching.New(sched, switching.Config{Name: "r" + string(rune('0'+i)), ProcDelay: time.Microsecond})
		if i == 1 {
			sw.SetBehavior(&adversary.Drop{Match: openflow.MatchAll()})
		}
		return sw
	})
	h1 := traffic.NewHost(sched, "h1", packet.HostMAC(1), packet.HostIP(1), traffic.HostConfig{})
	h2 := traffic.NewHost(sched, "h2", packet.HostMAC(2), packet.HostIP(2), traffic.HostConfig{})
	comb.AttachHost(net, core.SideLeft, h1, traffic.HostPort, h1.MAC(), link)
	comb.AttachHost(net, core.SideRight, h2, traffic.HostPort, h2.MAC(), link)

	detections := 0
	comb.Compare.OnAlarm = func(a core.Alarm) {
		if a.Kind == core.EventDetection {
			detections++
		}
	}

	sink := traffic.NewUDPSink(h2, 5001)
	src := traffic.NewUDPSource(h1, 4001, h2.Endpoint(5001), traffic.UDPSourceConfig{Rate: 5e6, PayloadSize: 500})
	src.Start()
	sched.RunUntil(100 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	// Detection mode must not cost availability...
	if got := sink.Stats().Unique; got != src.Sent {
		t.Fatalf("delivered %d of %d in detect-only mode", got, src.Sent)
	}
	// ...and must detect the dropping router.
	if detections == 0 {
		t.Fatal("no detection alarms despite a dropping router")
	}
}

func TestCentralTCPFlow(t *testing.T) {
	r := buildRig(t, 3, core.CombinerCentral, nil)
	flow := traffic.StartTCPFlow(r.h1, r.h2, 40000, 5001, traffic.TCPConfig{})
	r.sched.RunUntil(time.Second)
	flow.Stop()
	st := flow.Stats()
	goodput := st.Goodput(time.Second)
	if goodput < 50e6 {
		t.Fatalf("TCP through Central3 = %.1f Mbit/s, want a usable flow", goodput/1e6)
	}
	if st.GoodputBytes == 0 {
		t.Fatal("no bytes delivered")
	}
}

func TestEdgeSpoofValidation(t *testing.T) {
	// A frame arriving on the host port with a wrong source MAC must be
	// dropped by the edge's ingress check.
	r := buildRig(t, 3, core.CombinerCentral, nil)
	spoof := packet.NewUDP(
		packet.Endpoint{MAC: packet.HostMAC(99), IP: packet.HostIP(99), Port: 1},
		packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 5001},
		[]byte("spoof"),
	)
	sink := traffic.NewUDPSink(r.h2, 5001)
	// Bypass the host stack's own MAC stamping by sending raw.
	r.h1.Ports().Send(traffic.HostPort, spoof)
	r.sched.RunFor(10 * time.Millisecond)
	if r.comb.Left.Stats().SpoofDrops != 1 {
		t.Fatalf("SpoofDrops = %d, want 1", r.comb.Left.Stats().SpoofDrops)
	}
	if sink.Stats().Unique != 0 {
		t.Fatal("spoofed frame delivered")
	}
}

func TestCombinerClose(t *testing.T) {
	r := buildRig(t, 3, core.CombinerCentral, nil)
	r.comb.Close()
	// After Close the periodic sweep must stop rescheduling, so the
	// event queue drains.
	r.sched.Run()
	if r.sched.Pending() != 0 {
		t.Fatalf("%d events still pending after Close", r.sched.Pending())
	}
}

func TestCombinerTransparentToARP(t *testing.T) {
	// With broadcast rules on every router (in on one trunk, out on the
	// other), address resolution works across the combiner: the ARP
	// request is replicated, majority-voted and released like any other
	// frame.
	r := buildRig(t, 3, core.CombinerCentral, nil)
	defer r.comb.Close()
	for _, sw := range r.comb.Routers {
		for _, hop := range [][2]uint16{{core.RouterPortLeft, core.RouterPortRight}, {core.RouterPortRight, core.RouterPortLeft}} {
			sw.Table().Add(&openflow.FlowEntry{
				Priority: 90,
				Match:    openflow.MatchAll().WithDlDst(packet.Broadcast).WithInPort(hop[0]),
				Actions:  []openflow.Action{openflow.Output(hop[1])},
			})
		}
	}

	var mac packet.MAC
	ok := false
	r.h1.Resolve(r.h2.IP(), func(m packet.MAC, o bool) { mac, ok = m, o })
	r.sched.RunFor(100 * time.Millisecond)

	if !ok {
		t.Fatal("ARP resolution across the combiner failed")
	}
	if mac != r.h2.MAC() {
		t.Fatalf("resolved %v, want %v", mac, r.h2.MAC())
	}
	// Exactly one request and one reply were released (no broadcast
	// storms, no duplicates).
	if rel := r.comb.Compare.EngineStats().Released; rel != 2 {
		t.Fatalf("compare released %d frames, want 2 (request + reply)", rel)
	}
}

func TestCombinerWithoutBroadcastRoutesBlocksARP(t *testing.T) {
	// Without the explicit broadcast rules the routers drop the
	// request on a table miss — resolution must time out cleanly.
	r := buildRig(t, 3, core.CombinerCentral, nil)
	defer r.comb.Close()
	resolved, ok := false, true
	r.h1.Resolve(r.h2.IP(), func(_ packet.MAC, o bool) { resolved, ok = true, o })
	r.sched.RunFor(2 * time.Second)
	if !resolved || ok {
		t.Fatalf("resolution resolved=%v ok=%v, want timeout failure", resolved, ok)
	}
}

func TestCombinerMasksRouterCrash(t *testing.T) {
	// A router dying mid-flow (both its links go down) must not cost a
	// single datagram — the remaining two routers keep the majority —
	// and must raise the §IV case-3 availability alarm.
	r := buildRig(t, 3, core.CombinerCentral, nil)
	defer r.comb.Close()

	var silent int
	r.comb.Compare.OnAlarm = func(a core.Alarm) {
		if a.Kind == core.EventPortSilent && a.Router == 1 {
			silent++
		}
	}
	sink := traffic.NewUDPSink(r.h2, 5001)
	src := traffic.NewUDPSource(r.h1, 4001, r.h2.Endpoint(5001), traffic.UDPSourceConfig{
		Rate: 20e6, PayloadSize: 800,
	})
	src.Start()

	// Crash router 1 at t=100ms: every link it touches goes dark.
	r.sched.After(100*time.Millisecond, func() {
		victim := r.comb.Routers[1]
		for _, p := range victim.Ports().List() {
			victim.Ports().Link(p).ScheduleDown(r.sched.Now(), true)
		}
	})

	r.sched.RunFor(400 * time.Millisecond)
	src.Stop()
	r.sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	if st.Unique != src.Sent {
		t.Fatalf("delivered %d of %d across the crash", st.Unique, src.Sent)
	}
	if st.Duplicates != 0 || st.Corrupted != 0 {
		t.Fatalf("dups=%d corrupted=%d", st.Duplicates, st.Corrupted)
	}
	if silent == 0 {
		t.Fatal("no availability alarm for the crashed router")
	}
}
