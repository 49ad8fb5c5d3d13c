// SDN-fabric: the substrate on its own — a full 4-ary fat-tree (20
// switches, loops and all) run by a topology-discovering shortest-path
// controller wrapped in a statistics monitor, with hosts resolving each
// other over real ARP. No combiner: this example shows the library
// doubles as a general OpenFlow/SDN simulator.
//
//	go run ./examples/sdn-fabric
package main

import (
	"fmt"
	"os"
	"time"

	"netco"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sdn-fabric:", err)
		os.Exit(1)
	}
}

func run() error {
	sched := netco.NewScheduler()
	net := netco.NewNetwork(sched)
	link := netco.LinkConfig{Bandwidth: 1e9, Delay: 10 * time.Microsecond, QueueLimit: 100}

	ft := netco.BuildFatTree(net, netco.FatTreeParams{
		Arity:           4,
		Link:            link,
		SwitchProcDelay: 2 * time.Microsecond,
	})

	// Two hosts in different pods, attached before the switches connect
	// so their ports appear in the features replies.
	ha := netco.NewHost(sched, "ha", netco.HostMAC(1), netco.HostIP(1), netco.HostConfig{EchoResponder: true})
	hb := netco.NewHost(sched, "hb", netco.HostMAC(2), netco.HostIP(2), netco.HostConfig{EchoResponder: true})
	net.Connect(ha, 0, ft.Pods[0].Edge[0], ft.EdgeHostPortOf(0), link)
	net.Connect(hb, 0, ft.Pods[2].Edge[1], ft.EdgeHostPortOf(0), link)

	// A shortest-path routing controller (LLDP-style discovery + BFS
	// path installation), wrapped in a statistics monitor, runs all 20
	// switches — loops included; unknown destinations are delivered by a
	// loop-safe controller-mediated flood to edge ports.
	routing := netco.NewL2Routing(sched)
	defer routing.Close()
	mon := netco.NewMonitor(sched, routing)
	defer mon.Close()
	connect := func(sw *netco.Switch) {
		sw.SetMissSendToController(true)
		sw.ConnectController(mon, 200*time.Microsecond)
	}
	for _, c := range ft.Cores {
		connect(c)
	}
	for _, pod := range ft.Pods {
		for _, sw := range pod.Agg {
			connect(sw)
		}
		for _, sw := range pod.Edge {
			connect(sw)
		}
	}
	// Let handshakes finish and discovery converge.
	sched.RunFor(1200 * time.Millisecond)
	links := 0
	for _, dpid := range routing.Discovery().Dpids() {
		links += len(routing.Discovery().Neighbors(dpid))
	}
	fmt.Printf("discovered %d switches, %d directed links\n",
		len(routing.Discovery().Dpids()), links)

	// ha knows only hb's IP; ARP does the rest (delivered to edge ports
	// by the controller until locations are learned).
	resolved := make(chan struct{}, 1)
	var hbMAC netco.MAC
	ha.Resolve(hb.IP(), func(mac netco.MAC, ok bool) {
		if !ok {
			fmt.Println("resolution failed")
			return
		}
		hbMAC = mac
		resolved <- struct{}{}
	})
	sched.RunFor(100 * time.Millisecond)
	select {
	case <-resolved:
	default:
		return fmt.Errorf("ARP did not resolve")
	}
	fmt.Printf("ARP: %s is-at %s\n", hb.IP(), hbMAC)

	// Traffic: ping + a short UDP burst.
	pinger := netco.NewPinger(ha, hb.Endpoint(0), netco.PingerConfig{Count: 10, ID: 1})
	pinger.Run(nil)
	sink := netco.NewUDPSink(hb, 7000)
	src := netco.NewUDPSource(ha, 7000, netco.Endpoint{MAC: hbMAC, IP: hb.IP(), Port: 7000}, netco.UDPSourceConfig{
		Rate: 50e6, PayloadSize: 1200,
	})
	src.Start()
	sched.RunFor(500 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	pres := pinger.Result()
	avgRTT := "n/a"
	if pres.RTT.N() > 0 {
		avgRTT = pres.RTT.MeanDuration().String()
	}
	fmt.Printf("ping: %d/10 replies, avg RTT %s\n", pres.Received, avgRTT)
	fmt.Printf("udp:  %d/%d datagrams, jitter %v\n", sink.Stats().Unique, src.Sent, sink.Stats().Jitter)

	// What the monitor saw (flow counters per switch, like the §VI
	// screening).
	fmt.Println("\nmonitor snapshots:")
	for dpid := uint64(1); dpid < 32; dpid++ {
		snap := mon.Snapshot(dpid)
		if snap.At == 0 {
			continue
		}
		var flowPkts uint64
		for _, f := range snap.Flows {
			flowPkts += f.PacketCount
		}
		fmt.Printf("  dpid %2d: %2d flows, %6d flow-pkts, %6d tx-pkts\n",
			dpid, len(snap.Flows), flowPkts, snap.TxPackets())
	}
	return nil
}
