package experiment

import (
	"time"

	"netco/internal/adversary"
	"netco/internal/core"
	"netco/internal/openflow"
	"netco/internal/packet"
	"netco/internal/switching"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// DoSResult quantifies the combiner under the §II denial-of-service
// attacker and the effectiveness of the two defences §IV prescribes:
// port blocking against replays and logically isolated buffers against
// resource exhaustion.
type DoSResult struct {
	// BaselineMbps is benign UDP goodput with no attacker.
	BaselineMbps float64

	// Replay attack (same packet repeatedly on one port, §IV case 2):
	// goodput while the compare detects and blocks the port.
	ReplayMbps   float64
	ReplayBlocks uint64

	// Forged-packet flood (distinct unsolicited packets from one
	// router): goodput with the per-router ingest quota on and off.
	FloodIsolatedMbps float64
	FloodSharedMbps   float64
	// QuotaDrops counts flood copies rejected by the isolation quota.
	QuotaDrops uint64
}

// RunDoS measures the §II attack-4 scenarios on a Central3 combiner with
// a 100 Mbit/s benign UDP flow.
func RunDoS(p Params) DoSResult {
	var res DoSResult
	res.BaselineMbps, _, _ = runDoSScenario(p, false, nil)

	replayMbps, blocks, _ := runDoSScenario(p, false, func(i int) switching.Behavior {
		if i != 0 {
			return nil
		}
		return &adversary.Replay{Match: openflow.MatchAll(), Extra: 10}
	})
	res.ReplayMbps, res.ReplayBlocks = replayMbps, blocks

	res.FloodIsolatedMbps, _, res.QuotaDrops = runDoSFlood(p, false)
	res.FloodSharedMbps, _, _ = runDoSFlood(p, true)
	return res
}

func runDoSScenario(p Params, noIsolation bool, compromise func(i int) switching.Behavior) (mbps float64, blocks, quotaDrops uint64) {
	tp := p.TestbedParams(ScenCentral3, nil)
	tp.Compare.NoBufferIsolation = noIsolation
	tp.Compromise = compromise
	tb := topo.BuildTestbed(tp)
	defer tb.Close()

	sink := traffic.NewUDPSink(tb.H2, 5001)
	src := traffic.NewUDPSource(tb.H1, 4001, tb.H2.Endpoint(5001), traffic.UDPSourceConfig{
		Rate:        100e6,
		PayloadSize: 1470,
	})
	tb.Runner.RunFor(50 * time.Millisecond)
	src.Start()
	tb.Runner.RunFor(p.UDPDuration)
	src.Stop()
	tb.Runner.RunFor(2 * p.CompareHold)

	return sink.Stats().Goodput() / 1e6,
		tb.Combiner.Compare.Stats().Blocks,
		tb.Combiner.Compare.Stats().QuotaDrops
}

// runDoSFlood runs the benign flow against a router injecting 60 kpps of
// distinct forged packets toward the destination edge.
func runDoSFlood(p Params, noIsolation bool) (mbps float64, blocks, quotaDrops uint64) {
	forged := packet.NewUDP(
		packet.Endpoint{MAC: packet.HostMAC(0x66), IP: packet.HostIP(0x66), Port: 6},
		packet.Endpoint{MAC: packet.HostMAC(2), IP: packet.HostIP(2), Port: 5001},
		make([]byte, 400),
	)
	return runDoSScenario(p, noIsolation, func(i int) switching.Behavior {
		if i != 0 {
			return nil
		}
		return &adversary.Flood{
			OutPort:  core.RouterPortRight,
			Rate:     60000,
			Template: forged,
			Vary:     true,
		}
	})
}
