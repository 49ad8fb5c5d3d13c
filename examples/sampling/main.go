// Sampling: the §IX future-work design — forward traffic at full speed
// through a primary router and verify only a sampled subset against the
// other candidates on an out-of-band, detect-only compare. Shows the
// trade between verification load and detection latency.
//
//	go run ./examples/sampling
package main

import (
	"fmt"
	"os"
	"time"

	"netco"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sampling:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("sampling combiner: detection latency vs verification load")
	fmt.Printf("%12s %16s %18s %16s\n", "sample rate", "compare load", "first detection", "delivered")
	for _, rate := range []int{1, 4, 16, 64} {
		if err := runRate(rate); err != nil {
			return err
		}
	}
	fmt.Println("\nsparser sampling → less compare CPU, later detection; delivery is")
	fmt.Println("never gated on the compare (detection, not prevention).")
	return nil
}

func runRate(sampleRate int) error {
	sched := netco.NewScheduler()
	net := netco.NewNetwork(sched)
	link := netco.LinkConfig{Bandwidth: 500e6, Delay: 16 * time.Microsecond, QueueLimit: 100}

	comb := netco.BuildCombiner(net, netco.CombinerSpec{
		K:          3,
		Mode:       netco.CombinerSampling,
		SampleRate: sampleRate,
		Compare: netco.CompareNodeConfig{
			Engine:      netco.CompareConfig{HoldTimeout: 20 * time.Millisecond},
			PerCopyCost: 15 * time.Microsecond,
		},
		RouterLink:  link,
		CompareLink: link,
	}, func(i int) *netco.Switch {
		sw := netco.NewSwitch(sched, netco.SwitchConfig{
			Name: fmt.Sprintf("r%d", i), DatapathID: uint64(i + 1), ProcDelay: 2 * time.Microsecond,
		})
		if i == 2 {
			// Router 2 silently drops a quarter of all traffic.
			sw.SetBehavior(&netco.Drop{Match: netco.MatchAll(), Probability: 0.25, Rng: netco.NewRNG(9)})
		}
		return sw
	})
	defer comb.Close()

	h1 := netco.NewHost(sched, "h1", netco.HostMAC(1), netco.HostIP(1), netco.HostConfig{})
	h2 := netco.NewHost(sched, "h2", netco.HostMAC(2), netco.HostIP(2), netco.HostConfig{})
	comb.AttachHost(net, netco.SideLeft, h1, 0, h1.MAC(), link)
	comb.AttachHost(net, netco.SideRight, h2, 0, h2.MAC(), link)

	var firstDetection time.Duration = -1
	comb.Compare.OnAlarm = func(a netco.Alarm) {
		if firstDetection < 0 {
			firstDetection = a.At
		}
	}

	sink := netco.NewUDPSink(h2, 9000)
	src := netco.NewUDPSource(h1, 9000, h2.Endpoint(9000), netco.UDPSourceConfig{
		Rate:        20e6,
		PayloadSize: 1000,
	})
	src.Start()
	sched.RunFor(time.Second)
	src.Stop()
	sched.RunFor(100 * time.Millisecond)

	es := comb.Compare.EngineStats()
	load := float64(es.Ingested) / float64(3*src.Sent) * 100
	first := "never"
	if firstDetection >= 0 {
		first = firstDetection.String()
	}
	fmt.Printf("%9s1/%-2d %15.1f%% %18s %9d/%d\n",
		"", sampleRate, load, first, sink.Stats().Unique, src.Sent)
	return nil
}
