package experiment

import (
	"fmt"
	"time"

	"netco/internal/chaos"
	"netco/internal/topo"
	"netco/internal/traffic"
)

// ChaosResult is one churn run's outcome: delivery through the fault
// schedule plus the post-heal recovery latency, measured by a probe
// stream that starts exactly when the last outage heals.
type ChaosResult struct {
	Scenario Scenario
	// Sent/Delivered/Dups count the measurement stream's datagrams
	// across the whole window, faults included.
	Sent, Delivered, Dups uint64
	DeliveredFrac         float64
	// Crashes and FlapCycles report what the plan actually scheduled
	// (scenarios without a combiner or compare skip the targets they
	// lack).
	Crashes    int
	FlapCycles int
	// LastHeal is the instant the final outage heals; Recovery the gap
	// from there to the probe stream's first delivery. Recovered is false
	// if no probe datagram ever arrived.
	LastHeal  time.Duration
	Recovery  time.Duration
	Recovered bool
	// Impair aggregates the impairment-pipeline counters across the
	// fabric (all zero unless Params.Impair is configured), so chaos ×
	// impairment grids can split outage loss from modelled wire loss.
	Impair ImpairCounters
}

const (
	// chaosSettle matches the other experiment units' warm-up period.
	chaosSettle = 50 * time.Millisecond
	// chaosPayload is the measurement stream's datagram payload.
	chaosPayload = 1000
)

// RunChaos measures availability under lifecycle churn: a UDP stream
// crosses the scenario's fabric while ChaosCrashes routers cold-crash
// (staggered across the window, rules replayed on restart), one trunk
// link flaps at ChaosFlapPeriod, and optionally the compare restarts with
// its caches flushed. The headline figures are the delivered fraction
// under churn — a k≥3 combiner should mask single crashes entirely — and
// the recovery time after the last heal.
func RunChaos(p Params, s Scenario) ChaosResult {
	tb := p.Build(s)
	defer tb.Close()

	window := p.UDPDuration
	// Outages must heal early enough that the probe can still run inside
	// the window.
	healBound := chaosSettle + window*9/10

	plan, reg, res := chaosPlanFor(p, s, tb, window, healBound)
	if err := plan.Schedule(reg); err != nil {
		panic(fmt.Sprintf("experiment: chaos plan: %v", err)) // plan is built clamped-valid
	}
	res.LastHeal = plan.LastRecovery()

	sink := traffic.NewUDPSink(tb.H2, 5001)
	src := traffic.NewUDPSource(tb.H1, 4001, tb.H2.Endpoint(5001), traffic.UDPSourceConfig{
		Rate:        50e6,
		PayloadSize: chaosPayload,
	})

	// The probe stream starts at the last heal, on h1's own scheduler, so
	// its first arrival timestamps the fabric's return to service.
	probeSink := traffic.NewUDPSink(tb.H2, 5002)
	probe := traffic.NewUDPSource(tb.H1, 4002, tb.H2.Endpoint(5002), traffic.UDPSourceConfig{
		Rate:        10e6,
		PayloadSize: 256,
	})
	if res.LastHeal > 0 {
		h1 := tb.Net.SchedulerFor("h1")
		h1.After(res.LastHeal, probe.Start)
	}

	tb.Runner.RunFor(chaosSettle)
	src.Start()
	tb.Runner.RunFor(window)
	src.Stop()
	probe.Stop()
	tb.Runner.RunFor(2 * p.CompareHold) // drain in-flight copies

	st := sink.Stats()
	res.Sent = src.Sent
	res.Delivered = st.Unique
	res.Dups = st.Duplicates
	if src.Sent > 0 {
		res.DeliveredFrac = float64(st.Unique) / float64(src.Sent)
	}
	if res.LastHeal > 0 {
		pst := probeSink.Stats()
		if pst.Unique > 0 {
			res.Recovered = true
			res.Recovery = pst.First - res.LastHeal
		}
	}
	res.Impair = CollectImpair(tb.Net)
	return res
}

// chaosPlanFor expands the Params churn knobs into a plan against the
// testbed's targets, skipping targets the scenario lacks (POX has no
// combiner to flap, Dup no compare to restart) and clamping every outage
// to heal before healBound.
func chaosPlanFor(p Params, s Scenario, tb *topo.Testbed, window, healBound time.Duration) (chaos.Plan, chaos.Registry, ChaosResult) {
	var plan chaos.Plan
	reg := chaos.Registry{}
	res := ChaosResult{Scenario: s}

	clampAt := func(at, down time.Duration) time.Duration {
		if at+down > healBound {
			at = healBound - down
		}
		if at < chaosSettle {
			at = chaosSettle
		}
		return at
	}

	crashes := p.ChaosCrashes
	if n := len(tb.Routers); crashes > n {
		crashes = n
	}
	for i := 0; i < crashes; i++ {
		i := i
		sw := tb.Routers[i]
		restart := sw.Restart
		if tb.Combiner != nil {
			comb := tb.Combiner
			restart = func() { comb.RestartRouter(i) }
		}
		name := fmt.Sprintf("crash%d", i)
		reg[name] = chaos.NodeTarget(tb.Net.SchedulerFor(sw.Name()), sw.Crash, restart)
		at := clampAt(chaosSettle+window*time.Duration(i+1)/time.Duration(crashes+1), p.ChaosCrashDown)
		plan.Actions = append(plan.Actions, chaos.Action{
			Target: name, At: at, Down: p.ChaosCrashDown,
		})
		res.Crashes++
	}

	if p.ChaosFlapPeriod > 0 && tb.Combiner != nil && len(tb.Combiner.RouterLinks) > 0 {
		cycles := p.ChaosFlapCycles
		if cycles < 1 {
			cycles = 1
		}
		down := p.ChaosFlapPeriod / 2
		at := chaosSettle + window/5
		// Clamp the whole flap train, dropping cycles that cannot heal in
		// time.
		for cycles > 1 && at+time.Duration(cycles-1)*p.ChaosFlapPeriod+down > healBound {
			cycles--
		}
		reg["flap"] = chaos.LinkTarget(tb.Combiner.RouterLinks[0][0])
		plan.Actions = append(plan.Actions, chaos.Action{
			Target: "flap", At: clampAt(at, down), Down: down,
			Cycles: cycles, Period: p.ChaosFlapPeriod,
		})
		res.FlapCycles = cycles
	}

	if p.ChaosCompareRestart && tb.Combiner != nil && tb.Combiner.Compare != nil {
		cn := tb.Combiner.Compare
		const down = 20 * time.Millisecond
		reg["compare"] = chaos.NodeTarget(tb.Net.SchedulerFor(cn.Name()), cn.Crash, cn.Restart)
		plan.Actions = append(plan.Actions, chaos.Action{
			Target: "compare", At: clampAt(chaosSettle+window/2, down), Down: down,
		})
	}
	return plan, reg, res
}
