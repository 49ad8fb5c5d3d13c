package experiment

import (
	"testing"

	"netco/internal/netem"
	"netco/internal/sim"
)

// BenchmarkFluidFabricBuild prices the fat-tree fabric the hybrid, churn
// and scale engines build, at arity 16: 1,024 hosts and 3,072 links. Its
// B/op and allocs/op are what a change to the link or host layout moves;
// at arity 60 the same fabric is 54,000 hosts and 162,000 links.
func BenchmarkFluidFabricBuild(b *testing.B) {
	p := DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fabricSink = buildFluidFabric(netem.New(sim.NewScheduler()), p, 16)
	}
}

var fabricSink *fluidFabric
