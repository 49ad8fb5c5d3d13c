// Quickstart: build a k=3 robust combiner from the public API, compromise
// one of its routers, and watch the majority vote protect the traffic.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"netco"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// Everything runs on a deterministic virtual clock: simulations are
	// exactly repeatable and finish in milliseconds of wall time.
	sched := netco.NewScheduler()
	net := netco.NewNetwork(sched)
	link := netco.LinkConfig{Bandwidth: 500e6, Delay: 16 * time.Microsecond, QueueLimit: 100}

	// A robust combiner: trusted edges, three untrusted routers from
	// "different vendors", and a trusted compare that forwards a packet
	// once two of the three routers delivered identical copies.
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
		return netco.NewSwitch(sched, netco.SwitchConfig{
			Name:       fmt.Sprintf("vendor%c-router", 'A'+i),
			DatapathID: uint64(i + 1),
			ProcDelay:  2 * time.Microsecond,
		})
	})
	defer comb.Close()

	// Two hosts behind the combiner.
	h1 := netco.NewHost(sched, "h1", netco.HostMAC(1), netco.HostIP(1), netco.HostConfig{EchoResponder: true})
	h2 := netco.NewHost(sched, "h2", netco.HostMAC(2), netco.HostIP(2), netco.HostConfig{EchoResponder: true})
	comb.AttachHost(net, netco.SideLeft, h1, 0, h1.MAC(), link)
	comb.AttachHost(net, netco.SideRight, h2, 0, h2.MAC(), link)

	// Vendor B's router turns out to be compromised: it drops half of
	// everything and tags the rest into a foreign VLAN.
	comb.Routers[1].SetBehavior(netco.Chain{
		&netco.Drop{Match: netco.MatchAll(), Probability: 0.5, Rng: netco.NewRNG(42)},
		&netco.Modify{Match: netco.MatchAll(), Rewrite: []netco.Action{netco.SetVLANVID(666)}},
	})

	// Alarms surface at the compare.
	comb.Compare.OnAlarm = func(a netco.Alarm) {
		fmt.Printf("  [alarm] t=%-12v kind=%v edge=%d router=%d\n", a.At, a.Kind, a.Edge, a.Router)
	}

	// Send traffic: 200 ms of 20 Mbit/s UDP plus a ping train.
	sink := netco.NewUDPSink(h2, 9000)
	src := netco.NewUDPSource(h1, 9000, h2.Endpoint(9000), netco.UDPSourceConfig{
		Rate:        20e6,
		PayloadSize: 1000,
	})
	src.Start()
	pinger := netco.NewPinger(h1, h2.Endpoint(0), netco.PingerConfig{Count: 10, ID: 1})
	pinger.Run(nil)

	sched.RunFor(200 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	es := comb.Compare.EngineStats()
	fmt.Println()
	fmt.Printf("datagrams sent:                 %d\n", src.Sent)
	fmt.Printf("datagrams delivered (unique):   %d\n", st.Unique)
	fmt.Printf("duplicates leaked:              %d\n", st.Duplicates)
	pres := pinger.Result()
	avgRTT := "n/a"
	if pres.RTT.N() > 0 {
		avgRTT = pres.RTT.MeanDuration().String()
	}
	fmt.Printf("ping replies:                   %d/10 (avg RTT %s)\n",
		pres.Received, avgRTT)
	fmt.Printf("compare: released %d, suppressed %d tampered copies, %d late\n",
		es.Released, es.Suppressed, es.LateCopies)
	if st.Unique != src.Sent || st.Duplicates != 0 {
		return fmt.Errorf("combiner failed to mask the compromised router")
	}
	fmt.Println("\nthe compromised router changed nothing the receiver could see.")
	return nil
}
