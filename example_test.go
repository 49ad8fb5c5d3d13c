package netco_test

import (
	"fmt"
	"time"

	"netco"
)

// ExampleBuildCombiner protects a path with a k=3 robust combiner, lets
// one router drop everything, and shows that the receiver never notices.
func ExampleBuildCombiner() {
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
		RouterLink:  link,
		CompareLink: link,
	}, func(i int) *netco.Switch {
		return netco.NewSwitch(sched, netco.SwitchConfig{
			Name:      fmt.Sprintf("r%d", i),
			ProcDelay: 2 * time.Microsecond,
		})
	})
	defer comb.Close()

	h1 := netco.NewHost(sched, "h1", netco.HostMAC(1), netco.HostIP(1), netco.HostConfig{})
	h2 := netco.NewHost(sched, "h2", netco.HostMAC(2), netco.HostIP(2), netco.HostConfig{})
	comb.AttachHost(net, netco.SideLeft, h1, 0, h1.MAC(), link)
	comb.AttachHost(net, netco.SideRight, h2, 0, h2.MAC(), link)

	// Router 2 is compromised: it silently drops everything.
	comb.Routers[2].SetBehavior(&netco.Drop{Match: netco.MatchAll()})

	sink := netco.NewUDPSink(h2, 9000)
	src := netco.NewUDPSource(h1, 9000, h2.Endpoint(9000), netco.UDPSourceConfig{
		Rate:        10e6,
		PayloadSize: 1000,
	})
	src.Start()
	sched.RunFor(100 * time.Millisecond)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	st := sink.Stats()
	fmt.Printf("delivered %d/%d, duplicates %d\n", st.Unique, src.Sent, st.Duplicates)
	// Output: delivered 125/125, duplicates 0
}

// ExampleRunCaseStudy regenerates the paper's §VI attack numbers.
func ExampleRunCaseStudy() {
	r := netco.RunCaseStudy(netco.DefaultParams())
	fmt.Printf("attack: %d requests at fw1, %d responses at vm1\n",
		r.Attack.RequestsAtFirewall, r.Attack.ResponsesAtVM)
	fmt.Printf("netco:  %d requests at fw1, %d responses at vm1\n",
		r.Protected.RequestsAtFirewall, r.Protected.ResponsesAtVM)
	// Output:
	// attack: 20 requests at fw1, 0 responses at vm1
	// netco:  10 requests at fw1, 10 responses at vm1
}
