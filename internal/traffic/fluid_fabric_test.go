package traffic_test

import (
	"testing"
	"time"

	"netco/internal/experiment"
	"netco/internal/traffic"
)

// The fabric engines build FluidNets this package's tests never see:
// RunHybrid registers a whole fat tree before the first start, with
// region promotion and a mid-run swap; RunChurn starts and releases
// flows one at a time, cross-pod flows merging components, on two
// settle workers. Both settle under the max-min certificate, at demands
// that congest the fabric, so most rates are set by a bottleneck.

func TestFluidCertificateHybrid(t *testing.T) {
	certified := traffic.CertifyEverySettle(t)
	hp := experiment.DefaultHybridParams()
	hp.FlowDemand, hp.PromoteRho, hp.DemoteRho = 300e6, 0.9, 0.5
	if r := experiment.RunHybrid(experiment.DefaultParams(), hp); r.Settles == 0 || uint64(*certified) != r.Settles {
		t.Fatalf("certified %d of %d settles", *certified, r.Settles)
	}
}

func TestFluidCertificateChurn(t *testing.T) {
	certified := traffic.CertifyEverySettle(t)
	hp := experiment.DefaultHybridParams()
	hp.FlowDemand, hp.ChurnArrivals, hp.ChurnCrossFrac = 300e6, 200_000, 0.1
	hp.Duration, hp.SettleWorkers = 50*time.Millisecond, 2
	if r := experiment.RunChurn(experiment.DefaultParams(), hp); r.Settles == 0 || uint64(*certified) != r.Settles {
		t.Fatalf("certified %d of %d settles", *certified, r.Settles)
	}
}
