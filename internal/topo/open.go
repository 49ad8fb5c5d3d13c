package topo

import (
	"time"

	"netco/internal/netem"
	"netco/internal/sim"
	"netco/internal/sim/par"
)

// Cut is what a topology knows about how it may be partitioned (see
// partition.go for the unit rule).
type Cut struct {
	// Units is the number of co-location units; a run never gets more
	// domains than this.
	Units int
	// Delay is the propagation delay of the links that join units — the
	// only links a partition boundary may cross, and so the lookahead.
	Delay time.Duration
	// Assign returns the node-name → domain map for a domain count in
	// 1..Units (TestbedAssign, MultipathAssign, FatTreeAssign curried on
	// its arity).
	Assign func(domains int) func(name string) int
}

// World is an opened simulation: an empty network and the clock that
// drives it. Exactly one of Sched and Engine is set; Runner is whichever
// it is, and is what drivers advance time through.
type World struct {
	Net    *netem.Network
	Runner sim.Runner
	// Sched is the single scheduler of a serial world, nil when partitioned.
	Sched *sim.Scheduler
	// Engine is the parallel engine of a partitioned world, nil otherwise.
	Engine *par.Engine
}

// Open is the one place a simulation's execution mode is chosen. The
// world is partitioned, over min(partitions, cut.Units) domains, iff that
// is more than one and the cut has a positive delay (a zero-delay cut has
// no lookahead bound); otherwise it is serial. Both give bit-identical
// runs. workers bounds the engine's goroutines (0 = GOMAXPROCS). Build
// the topology into w.Net, placing every node with Net.SchedulerFor, then
// call Wired.
func Open(partitions, workers int, cut Cut) *World {
	domains := min(partitions, cut.Units)
	if domains <= 1 || cut.Delay <= 0 {
		sched := sim.NewScheduler()
		return &World{Net: netem.New(sched), Runner: sched, Sched: sched}
	}
	eng := par.New(domains, workers)
	net := netem.NewPartitioned(eng.Schedulers(), cut.Assign(domains),
		func(src, dst int) netem.CrossPost { return eng.Boundary(src, dst) })
	return &World{Net: net, Runner: eng, Engine: eng}
}

// Wired declares the wiring complete: the engine's lookahead becomes the
// smallest delay among the links that ended up crossing a boundary. It
// must be called after the last Connect and before time advances.
func (w *World) Wired() {
	if w.Engine != nil {
		w.Engine.SetLookahead(w.Net.MinCrossDelay())
	}
}

// Domains returns the number of partitions the world runs on (1 = serial).
func (w *World) Domains() int {
	if w.Engine == nil {
		return 1
	}
	return w.Engine.Domains()
}
