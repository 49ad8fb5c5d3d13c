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
// that congest the fabric, so most rates are set by a bottleneck; churn
// also settles under the reference oracle. Churn's runs reuse freed
// directions, so the certificate's free-list check and the oracle see
// recycled ids.

func TestFluidCertificateHybrid(t *testing.T) {
	certified := traffic.CertifyEverySettle(t)
	hp := experiment.DefaultHybridParams()
	hp.FlowDemand = 300e6
	if r := experiment.RunHybrid(experiment.DefaultParams(), hp); r.Settles == 0 || uint64(*certified) != r.Settles {
		t.Fatalf("certified %d of %d settles", *certified, r.Settles)
	}
}

func TestFluidCertificateChurn(t *testing.T) {
	certified, nets := traffic.CertifyEverySettle(t), traffic.CaptureNets(t)
	hp := experiment.DefaultHybridParams()
	hp.FlowDemand, hp.ChurnArrivals, hp.ChurnCrossFrac = 300e6, 200_000, 0.1
	hp.Duration, hp.SettleWorkers = 50*time.Millisecond, 2
	if r := experiment.RunChurn(experiment.DefaultParams(), hp); r.Settles == 0 || uint64(*certified) != r.Settles {
		t.Fatalf("certified %d of %d settles", *certified, r.Settles)
	}
	requireReuse(t, *nets)
}

// requireReuse fails unless the run built one FluidNet and it reused a
// freed direction.
func requireReuse(t *testing.T, nets []*traffic.FluidNet) {
	t.Helper()
	if len(nets) != 1 || traffic.DirsReused(nets[0]) == 0 {
		t.Fatalf("want one FluidNet that reuses a freed direction, got %d nets", len(nets))
	}
}

// TestFluidChurnDirsTrackLiveFlows: churn holds about the directions its
// live flows cross, not every one its arrivals have touched. Sparse
// arrivals over an arity-32 fabric (8,192 hosts, 49,152 directions)
// touch about 24,000 directions, but under a hundred flows live at once,
// each crossing at most 6: the run holds about 700.
func TestFluidChurnDirsTrackLiveFlows(t *testing.T) {
	nets := traffic.CaptureNets(t)
	hp := experiment.DefaultHybridParams()
	hp.Arity, hp.FlowDemand, hp.ChurnArrivals, hp.ChurnCrossFrac = 32, 100e6, 20_000, 0.1
	hp.Duration = 500 * time.Millisecond
	r := experiment.RunChurn(experiment.DefaultParams(), hp)
	requireReuse(t, *nets)
	if held, bound := traffic.DirsHeld((*nets)[0]), 6*r.PeakLive+1024; held > bound {
		t.Fatalf("%d arrivals, at most %d live, held %d directions: want at most %d",
			r.Arrivals, r.PeakLive, held, bound)
	}
}

// TestFluidChurnMatchesFullResettle pins RunChurn's incremental settle to
// the reference oracle at four settle workers, with cross-pod flows
// merging allocator components: the digest folds every live flow's rate
// at every epoch, so equal digests mean equal rates throughout. The
// oracle must solve more components than the incremental run, or the
// comparison would hold without comparing anything. (Settle-worker
// counts against each other are the churn row of TestDeterminismMatrix.)
func TestFluidChurnMatchesFullResettle(t *testing.T) {
	p := experiment.DefaultParams().Quick()
	hp := experiment.DefaultHybridParams()
	hp.Duration, hp.Epoch = 200*time.Millisecond, 5*time.Millisecond
	hp.ChurnArrivals, hp.ChurnMeanBytes, hp.ChurnParetoFrac, hp.ChurnCrossFrac = 8_000, 20_000, 0.3, 0.1
	base := experiment.RunChurn(p, hp)
	if base.Digest == "" {
		t.Fatal("empty digest")
	}
	traffic.FullResettleEveryNet(t)
	nets := traffic.CaptureNets(t)
	hp.SettleWorkers = 4
	r := experiment.RunChurn(p, hp)
	requireReuse(t, *nets)
	if r.Digest != base.Digest {
		t.Fatalf("digest diverged under the oracle:\nincremental: %s\noracle:      %s", base.Digest, r.Digest)
	}
	if r.ComponentsSolved <= base.ComponentsSolved {
		t.Fatalf("the oracle solved %d components, the incremental run %d: it re-solved nothing extra",
			r.ComponentsSolved, base.ComponentsSolved)
	}
}
