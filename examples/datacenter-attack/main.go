// Datacenter-attack: the §VI case study built by hand against the public
// API — a fat-tree fabric, a compromised aggregation switch that mirrors
// firewall-bound traffic toward the core and drops the responses, and a
// NetCo combiner that cages it.
//
//	go run ./examples/datacenter-attack
package main

import (
	"fmt"
	"os"
	"time"

	"netco"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "datacenter-attack:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, protected := range []bool{false, true} {
		if err := scenario(protected); err != nil {
			return err
		}
	}
	return nil
}

func scenario(protected bool) error {
	sched := netco.NewScheduler()
	net := netco.NewNetwork(sched)
	link := netco.LinkConfig{Bandwidth: 500e6, Delay: 16 * time.Microsecond, QueueLimit: 100}

	ft := netco.BuildFatTree(net, netco.FatTreeParams{
		Arity:           4,
		Link:            link,
		SwitchProcDelay: 2 * time.Microsecond,
	})
	pod := ft.Pods[0]
	edgeFW, edgeVM, agg := pod.Edge[0], pod.Edge[1], pod.Agg[0]

	hostCfg := netco.HostConfig{EchoResponder: true}
	fw1 := netco.NewHost(sched, "fw1", netco.HostMAC(0xf1), netco.HostIP(0xf1), hostCfg)
	vm1 := netco.NewHost(sched, "vm1", netco.HostMAC(0xa1), netco.HostIP(0xa1), hostCfg)
	net.Connect(fw1, 0, edgeFW, ft.EdgeHostPortOf(0), link)
	net.Connect(vm1, 0, edgeVM, ft.EdgeHostPortOf(0), link)

	addRoute := func(sw *netco.Switch, mac netco.MAC, port int) {
		sw.Table().Add(&netco.FlowEntry{
			Priority: 100,
			Match:    netco.MatchAll().WithDlDst(mac),
			Actions:  []netco.Action{netco.Output(uint16(port))},
		})
	}
	addRoute(edgeFW, fw1.MAC(), ft.EdgeHostPortOf(0))
	addRoute(edgeVM, vm1.MAC(), ft.EdgeHostPortOf(0))

	var comb *netco.Combiner
	if protected {
		// Replace the aggregation hop with a k=3 combiner; the attacker
		// is candidate 1.
		comb = netco.BuildCombiner(net, netco.CombinerSpec{
			NamePrefix: "netco-",
			K:          3,
			Mode:       netco.CombinerCentral,
			Compare: netco.CompareNodeConfig{
				Engine:      netco.CompareConfig{HoldTimeout: 20 * time.Millisecond},
				PerCopyCost: 15 * time.Microsecond,
			},
			RouterLink:  link,
			CompareLink: link,
		}, func(i int) *netco.Switch {
			sw := netco.NewSwitch(sched, netco.SwitchConfig{
				Name: fmt.Sprintf("cand%d", i), DatapathID: uint64(50 + i), ProcDelay: 2 * time.Microsecond,
			})
			if i == 1 {
				// Inside the combiner the attacker's "core" port does
				// not exist; the mirror goes out the wrong side.
				compromise(sw, fw1.MAC(), vm1.MAC(), 0, 0)
			}
			return sw
		})
		defer comb.Close()
		const spare = 4
		net.Connect(edgeVM, spare, comb.Left, 0, link)
		net.Connect(edgeFW, spare, comb.Right, 0, link)
		comb.Left.AddRoute(vm1.MAC(), 0)
		comb.Right.AddRoute(fw1.MAC(), 0)
		comb.InstallRoute(fw1.MAC(), netco.SideRight)
		comb.InstallRoute(vm1.MAC(), netco.SideLeft)
		addRoute(edgeVM, fw1.MAC(), spare)
		addRoute(edgeFW, vm1.MAC(), spare)
	} else {
		addRoute(edgeVM, fw1.MAC(), ft.EdgeUpPortOf(0))
		addRoute(edgeFW, vm1.MAC(), ft.EdgeUpPortOf(0))
		addRoute(agg, fw1.MAC(), ft.AggDownPortOf(0))
		addRoute(agg, vm1.MAC(), ft.AggDownPortOf(1))
		addRoute(ft.Cores[0], fw1.MAC(), ft.CorePodPortOf(0))
		compromise(agg, fw1.MAC(), vm1.MAC(), uint16(ft.AggDownPortOf(1)), uint16(ft.AggUpPortOf(0)))
	}

	pinger := netco.NewPinger(vm1, fw1.Endpoint(0), netco.PingerConfig{
		Count: 10, Interval: 20 * time.Millisecond, ID: 1,
	})
	pinger.Run(nil)
	sched.RunFor(3 * time.Second)

	res := pinger.Result()
	label := "unprotected fabric"
	if protected {
		label = "aggregation hop inside a NetCo combiner"
	}
	fmt.Printf("== %s ==\n", label)
	fmt.Printf("  requests answered by fw1: %d (10 sent)\n", fw1.Stats().EchoesAnswered)
	fmt.Printf("  responses back at vm1:    %d\n", res.Received)
	if comb != nil {
		es := comb.Compare.EngineStats()
		fmt.Printf("  compare: released %d, quarantined %d mirrored copies\n", es.Released, es.Suppressed)
	}
	fmt.Println()
	return nil
}

// compromise installs the §VI attack: mirror firewall-bound packets
// entering on inPort out of mirrorPort, drop everything returning to the
// VM.
func compromise(sw *netco.Switch, fwMAC, vmMAC netco.MAC, inPort, mirrorPort uint16) {
	sw.SetBehavior(netco.Chain{
		&netco.Mirror{Match: netco.MatchAll().WithDlDst(fwMAC).WithInPort(inPort), ToPort: mirrorPort},
		&netco.Drop{Match: netco.MatchAll().WithDlDst(vmMAC)},
	})
}
