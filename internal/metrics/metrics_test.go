package metrics

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d, want 8", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Sample std of this classic dataset is ~2.138.
	if got := s.Std(); math.Abs(got-2.13809) > 1e-4 {
		t.Fatalf("Std = %v, want ≈2.138", got)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Std() != 0 {
		t.Fatalf("empty summary N/Std = %d/%v, want 0/0", s.N(), s.Std())
	}
	// Statistics of an empty sample set are NaN, not 0 — a reporter must
	// never render them as real measurements.
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Fatalf("empty summary Mean/Min/Max = %v/%v/%v, want NaN", s.Mean(), s.Min(), s.Max())
	}
	if s.MeanDuration() != 0 {
		t.Fatalf("empty MeanDuration = %v, want 0 (gate on N)", s.MeanDuration())
	}
}

func TestSummaryMergeMatchesSingleThreadedReference(t *testing.T) {
	samples := []float64{3.5, -2, 8, 8, 0.25, 17, -9.5, 4, 4, 11, 0.125, 6}
	// Reference: all samples folded into one summary.
	var ref Summary
	for _, x := range samples {
		ref.Add(x)
	}
	// Split into three shards (as the parallel runner would), then merge.
	var a, b, c Summary
	for i, x := range samples {
		switch i % 3 {
		case 0:
			a.Add(x)
		case 1:
			b.Add(x)
		case 2:
			c.Add(x)
		}
	}
	var got Summary
	got.Merge(a)
	got.Merge(b)
	got.Merge(c)

	if got.N() != ref.N() {
		t.Fatalf("merged N = %d, want %d", got.N(), ref.N())
	}
	if math.Abs(got.Mean()-ref.Mean()) > 1e-12 {
		t.Fatalf("merged Mean = %v, want %v", got.Mean(), ref.Mean())
	}
	if math.Abs(got.Std()-ref.Std()) > 1e-12 {
		t.Fatalf("merged Std = %v, want %v", got.Std(), ref.Std())
	}
	if got.Min() != ref.Min() || got.Max() != ref.Max() {
		t.Fatalf("merged Min/Max = %v/%v, want %v/%v", got.Min(), got.Max(), ref.Min(), ref.Max())
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var empty, s Summary
	s.Add(5)
	s.Add(7)

	got := s
	got.Merge(empty) // no-op
	if got.N() != 2 || got.Mean() != 6 {
		t.Fatalf("merge(empty) changed summary: N=%d Mean=%v", got.N(), got.Mean())
	}
	var dst Summary
	dst.Merge(s) // adopt
	if dst.N() != 2 || dst.Mean() != 6 || dst.Min() != 5 || dst.Max() != 7 {
		t.Fatalf("empty.Merge(s) = N=%d Mean=%v Min=%v Max=%v", dst.N(), dst.Mean(), dst.Min(), dst.Max())
	}

	// empty ⊕ empty stays empty: N is 0 and Min/Max/Mean keep reporting
	// NaN rather than adopting zero-valued "measurements".
	var a, b Summary
	a.Merge(b)
	if a.N() != 0 || !math.IsNaN(a.Min()) || !math.IsNaN(a.Max()) || !math.IsNaN(a.Mean()) {
		t.Fatalf("empty⊕empty: N=%d Min=%v Max=%v Mean=%v", a.N(), a.Min(), a.Max(), a.Mean())
	}
	// ... and stays mergeable afterwards.
	a.Merge(s)
	if a.N() != 2 || a.Min() != 5 {
		t.Fatalf("merge after empty⊕empty: N=%d Min=%v", a.N(), a.Min())
	}
}

func TestSummaryMergeNaNMinMaxPropagation(t *testing.T) {
	// The NaN that empty Min/Max *report* is an output convention, not
	// stored state: merging an empty summary in must never poison the
	// destination's min/max, in either direction.
	var empty, s Summary
	s.Add(-2)
	s.Add(9)

	got := s
	got.Merge(empty)
	if got.Min() != -2 || got.Max() != 9 {
		t.Fatalf("nonempty.Merge(empty) corrupted Min/Max: %v/%v", got.Min(), got.Max())
	}
	var dst Summary
	dst.Merge(s)
	dst.Merge(empty)
	if dst.Min() != -2 || dst.Max() != 9 || dst.N() != 2 {
		t.Fatalf("adopt-then-empty corrupted Min/Max: %v/%v N=%d", dst.Min(), dst.Max(), dst.N())
	}

	// A summary that was fed an actual NaN sample is a caller bug, but
	// Merge must still not turn a clean summary's exact fields into NaN
	// via the empty-adopt path: only genuinely empty summaries shortcut.
	var clean Summary
	clean.Add(1)
	var alsoClean Summary
	alsoClean.Add(2)
	clean.Merge(alsoClean)
	if math.IsNaN(clean.Min()) || math.IsNaN(clean.Max()) || clean.N() != 2 {
		t.Fatalf("clean merge produced NaN: %v/%v", clean.Min(), clean.Max())
	}
}

func TestSummaryJSONRoundTrip(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 10} {
		s.Add(x)
	}
	buf, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.N() != s.N() || back.Mean() != s.Mean() || back.Min() != s.Min() ||
		back.Max() != s.Max() || math.Abs(back.Std()-s.Std()) > 1e-12 {
		t.Fatalf("round trip lost state: %+v vs %+v", back, s)
	}
	// The restored summary keeps merging correctly.
	var more Summary
	more.Add(20)
	back.Merge(more)
	if back.N() != 5 || back.Max() != 20 {
		t.Fatalf("merge after round trip: N=%d Max=%v", back.N(), back.Max())
	}

	// Empty summaries marshal as {"n":0} — no fake zero measurements, no
	// NaN (which JSON cannot carry).
	var empty Summary
	buf, err = json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != `{"n":0}` {
		t.Fatalf("empty summary JSON = %s", buf)
	}
	var backEmpty Summary
	if err := json.Unmarshal(buf, &backEmpty); err != nil {
		t.Fatal(err)
	}
	if backEmpty.N() != 0 || !math.IsNaN(backEmpty.Min()) {
		t.Fatalf("empty round trip: N=%d Min=%v", backEmpty.N(), backEmpty.Min())
	}
}

func TestSummaryDuration(t *testing.T) {
	var s Summary
	s.AddDuration(100 * time.Microsecond)
	s.AddDuration(300 * time.Microsecond)
	got := s.MeanDuration()
	if got < 199*time.Microsecond || got > 201*time.Microsecond {
		t.Fatalf("MeanDuration = %v, want ≈200µs", got)
	}
}

// Property: mean is always within [min, max], std >= 0.
func TestSummaryInvariants(t *testing.T) {
	f := func(samples []float64) bool {
		var s Summary
		for _, x := range samples {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				continue // keep m2 within float range
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9 && s.Std() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJitterConstantTransitIsZero(t *testing.T) {
	var j Jitter
	for i := 0; i < 100; i++ {
		j.Sample(50 * time.Microsecond)
	}
	if j.Value() != 0 {
		t.Fatalf("jitter = %v for constant transit, want 0", j.Value())
	}
	if j.N() != 99 {
		t.Fatalf("N = %d, want 99", j.N())
	}
}

func TestJitterConvergesToMeanDeviation(t *testing.T) {
	// Alternating transit 0/100µs: |D| = 100µs every step; the RFC 3550
	// filter converges to 100µs.
	var j Jitter
	for i := 0; i < 500; i++ {
		if i%2 == 0 {
			j.Sample(0)
		} else {
			j.Sample(100 * time.Microsecond)
		}
	}
	got := j.Value()
	if got < 95*time.Microsecond || got > 100*time.Microsecond {
		t.Fatalf("jitter = %v, want ≈100µs", got)
	}
}

func TestJitterSmoothing(t *testing.T) {
	// One outlier among constant transit moves the estimate by 1/16 of
	// the deviation, twice (entering and leaving the outlier).
	var j Jitter
	for i := 0; i < 50; i++ {
		j.Sample(10 * time.Microsecond)
	}
	j.Sample(170 * time.Microsecond) // deviation 160µs → +10µs
	if got := j.Value(); got < 9*time.Microsecond || got > 11*time.Microsecond {
		t.Fatalf("jitter after one outlier = %v, want ≈10µs", got)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(125_000_000, time.Second); got != 1e9 {
		t.Fatalf("Throughput = %v, want 1 Gbit/s", got)
	}
	if got := Throughput(1000, 0); got != 0 {
		t.Fatalf("zero-interval throughput = %v, want 0", got)
	}
	if got := Mbps(250e6); got != 250 {
		t.Fatalf("Mbps = %v, want 250", got)
	}
}

func TestClassifierStatsJSONRoundTrip(t *testing.T) {
	in := ClassifierStats{Lookups: 9, MaskProbes: 11, Misses: 2, Masks: 3}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ClassifierStats
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Fatalf("round trip %+v -> %+v", in, out)
	}
}
