// Virtualized: the §VII combiner without extra hardware — a flow split
// over three VLAN-labelled disjoint paths through existing devices from
// two "vendors", recombined inband at the egress. One device on the
// middle path tampers with packets; the majority out-votes it.
//
//	go run ./examples/virtualized
package main

import (
	"fmt"
	"os"
	"time"

	"netco"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "virtualized:", err)
		os.Exit(1)
	}
}

func run() error {
	sched := netco.NewScheduler()
	net := netco.NewNetwork(sched)
	link := netco.LinkConfig{Bandwidth: 500e6, Delay: 16 * time.Microsecond, QueueLimit: 100}

	mp := netco.BuildMultipath(net, netco.MultipathParams{
		Paths:           3,
		HopsPerPath:     2,
		Link:            link,
		EdgeLink:        link,
		SwitchProcDelay: 2 * time.Microsecond,
		Edge: netco.VirtualEdgeConfig{
			Engine:      netco.CompareConfig{HoldTimeout: 20 * time.Millisecond},
			PerCopyCost: 15 * time.Microsecond,
		},
		// The middle path's first device rewrites the TOS byte of
		// everything heading right — a covert-channel / policy-evasion
		// tamper.
		Compromise: func(path, hop int) netco.Behavior {
			if path == 1 && hop == 0 {
				return &netco.Modify{
					Match:   netco.MatchAll().WithDlDst(netco.HostMAC(2)),
					Rewrite: []netco.Action{netco.SetNwTOS(0xfc)},
				}
			}
			return nil
		},
	})
	defer mp.Close()

	h1 := netco.NewHost(sched, "h1", netco.HostMAC(1), netco.HostIP(1), netco.HostConfig{EchoResponder: true})
	h2 := netco.NewHost(sched, "h2", netco.HostMAC(2), netco.HostIP(2), netco.HostConfig{EchoResponder: true})
	net.Connect(h1, 0, mp.Left, 0, link)
	net.Connect(h2, 0, mp.Right, 0, link)
	mp.Route(h1.MAC(), netco.SideLeft)
	mp.Route(h2.MAC(), netco.SideRight)

	fmt.Println("paths and devices:")
	for i, path := range mp.Paths {
		fmt.Printf("  path %d (vlan %d):", i, mp.Left.Tag(i))
		for _, sw := range path {
			fmt.Printf(" %s", sw.Name())
		}
		fmt.Println()
	}
	fmt.Println()

	sink := netco.NewUDPSink(h2, 9000)
	src := netco.NewUDPSource(h1, 9000, h2.Endpoint(9000), netco.UDPSourceConfig{
		Rate:        50e6,
		PayloadSize: 1200,
	})
	src.Start()
	sched.RunFor(300 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	es := mp.Right.EngineStats()
	fmt.Printf("datagrams sent:      %d\n", src.Sent)
	fmt.Printf("delivered (unique):  %d, duplicates %d, jitter %v\n", st.Unique, st.Duplicates, st.Jitter)
	fmt.Printf("inband compare:      released %d, suppressed %d tampered copies\n", es.Released, es.Suppressed)
	if st.Unique != src.Sent {
		return fmt.Errorf("virtual combiner lost traffic")
	}
	fmt.Println("\nno extra hardware was deployed — only path bandwidth and two trusted edges.")
	return nil
}
