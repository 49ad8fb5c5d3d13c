package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestLibmPinned pins the libm calls behind a histogram's bucket index
// (math.Log) and its reported values (math.Pow of histGamma) to the bits
// they return on amd64. The standard library implements both per
// architecture and does not promise the same bits everywhere; a machine
// where this fails cannot reproduce the artifacts' histograms, and the
// call needs a repo-local replacement.
func TestLibmPinned(t *testing.T) {
	for _, c := range []struct {
		x    float64
		bits uint64
	}{
		{histGamma, 0x3f944723d272a7f6},
		{1e-09, 0xc034b927f32bffb8},
		{0.001, 0xc01ba18a998fffa0},
		{0.5, 0xbfe62e42fefa39ef},
		{0.999, 0xbf5064670d979b73},
		{1, 0x0000000000000000},
		{1.0000001, 0x3e7ad7f2847b6492},
		{1.5, 0x3fd9f323ecbf984c},
		{2, 0x3fe62e42fefa39ef},
		{3.14159, 0x3ff250cf662abf9a},
		{100, 0x40126bb1bbb55516},
		{1234.5678, 0x401c7951d51791d7},
		{1e+06, 0x402ba18a998fffa0},
		{9.99e+08, 0x4034b8e6618fc95a},
		{1e+12, 0x403ba18a998fffa0},
		{1e+300, 0x4085963447f87fb5},
	} {
		if got := math.Float64bits(math.Log(c.x)); got != c.bits {
			t.Errorf("math.Log(%v) = %#016x, want %#016x", c.x, got, c.bits)
		}
	}
	for _, c := range []struct {
		i    int
		bits uint64
	}{
		{-700, 0x3eb00486cbcc158f},
		{-100, 0x3fc1ab1073f12c1d},
		{-1, 0x3fef5f5f5f5f5f5f},
		{0, 0x3ff0000000000000},
		{1, 0x3ff051eb851eb852},
		{2, 0x3ff0a57a786c2268},
		{50, 0x4005885f4df968eb},
		{349, 0x408f5af03d1c24d0},
		{700, 0x412ff6f4f7599644},
		{1395, 0x426ceb5fe62a31ee},
	} {
		if got := math.Float64bits(math.Pow(histGamma, float64(c.i))); got != c.bits {
			t.Errorf("math.Pow(%v, %d) = %#016x, want %#016x", histGamma, c.i, got, c.bits)
		}
	}
}

func TestHistEmpty(t *testing.T) {
	var h Hist
	if h.N() != 0 {
		t.Fatalf("empty N = %d", h.N())
	}
	for _, v := range []float64{h.Mean(), h.Min(), h.Max(), h.Quantile(0.5)} {
		if !math.IsNaN(v) {
			t.Fatalf("empty statistic = %v, want NaN", v)
		}
	}
}

func TestHistQuantileRelativeError(t *testing.T) {
	// Against the exact order statistics of a deterministic sample set.
	rng := rand.New(rand.NewSource(7))
	var h Hist
	samples := make([]float64, 0, 5000)
	for i := 0; i < 5000; i++ {
		v := math.Exp(rng.Float64()*12 - 3) // ~[0.05, 8e3]
		samples = append(samples, v)
		h.Add(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.011 {
			t.Fatalf("q=%v: got %v want %v (rel err %v > 1.1%%)", q, got, exact, rel)
		}
	}
	if h.Quantile(0) != samples[0] || h.Quantile(1) != samples[len(samples)-1] {
		t.Fatalf("extremes not exact: %v/%v vs %v/%v",
			h.Quantile(0), h.Quantile(1), samples[0], samples[len(samples)-1])
	}
}

func TestHistZerosAndNonFinite(t *testing.T) {
	var h Hist
	h.Add(0)
	h.Add(-3)
	h.Add(10)
	h.Add(math.NaN()) // dropped
	h.Add(math.Inf(1))
	if h.N() != 3 {
		t.Fatalf("N = %d, want 3 (NaN and Inf dropped)", h.N())
	}
	if h.Min() != -3 || h.Max() != 10 {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Two of three samples are ≤ 0: the median lands in the zero bucket.
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("median = %v, want 0", got)
	}
}

func TestHistMergeMatchesSequentialAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ref Hist
	parts := make([]Hist, 4)
	for i := 0; i < 4000; i++ {
		v := math.Exp(rng.Float64()*10 - 5)
		if i%97 == 0 {
			v = 0
		}
		ref.Add(v)
		parts[i%4].Add(v)
	}
	var merged Hist
	for _, p := range parts {
		merged.Merge(p)
	}
	// Sum is floating point, so partitioned addition can differ from
	// sequential addition in the last bits; everything else — bucket
	// counts, N, zeros, min, max — is exact under merge.
	if rel := math.Abs(merged.Sum()-ref.Sum()) / ref.Sum(); rel > 1e-12 {
		t.Fatalf("merged sum off by %v relative", rel)
	}
	merged.sum = ref.sum
	a, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("merged sketch diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestHistMergeEmptyCases(t *testing.T) {
	var a, b Hist
	a.Merge(b) // empty ⊕ empty stays empty
	if a.N() != 0 || !math.IsNaN(a.Min()) {
		t.Fatalf("empty⊕empty: N=%d Min=%v", a.N(), a.Min())
	}
	b.Add(2)
	b.Add(4)
	a.Merge(b) // empty ⊕ nonempty adopts
	if a.N() != 2 || a.Min() != 2 || a.Max() != 4 || a.Sum() != 6 {
		t.Fatalf("empty⊕nonempty: N=%d Min=%v Max=%v Sum=%v", a.N(), a.Min(), a.Max(), a.Sum())
	}
	var e Hist
	a.Merge(e) // nonempty ⊕ empty is a no-op
	if a.N() != 2 || a.Mean() != 3 {
		t.Fatalf("nonempty⊕empty changed: N=%d Mean=%v", a.N(), a.Mean())
	}
	// Merging must not alias the source's bucket map.
	a.Add(2)
	if b.N() != 2 {
		t.Fatalf("merge aliased source: b.N=%d", b.N())
	}
}

func TestHistJSONRoundTrip(t *testing.T) {
	var h Hist
	for _, v := range []float64{0.5, 1, 1, 2.5, 100, 0, 3e6} {
		h.Add(v)
	}
	buf, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var back Hist
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	buf2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", buf, buf2)
	}
	// The restored sketch keeps merging losslessly.
	var more Hist
	more.Add(7)
	back.Merge(more)
	if back.N() != h.N()+1 || back.Max() != 3e6 {
		t.Fatalf("merge after round trip: N=%d Max=%v", back.N(), back.Max())
	}

	// Empty sketch marshals compactly and restores empty.
	var empty Hist
	buf, err = json.Marshal(empty)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != `{"n":0}` {
		t.Fatalf("empty hist JSON = %s", buf)
	}
	var backEmpty Hist
	if err := json.Unmarshal(buf, &backEmpty); err != nil {
		t.Fatal(err)
	}
	if backEmpty.N() != 0 {
		t.Fatalf("empty round trip N = %d", backEmpty.N())
	}
}

func TestHistUnmarshalRejectsCorrupt(t *testing.T) {
	var h Hist
	if err := h.UnmarshalJSON([]byte(`{"n":3,"idx":[1,2],"count":[1]}`)); err == nil {
		t.Fatal("idx/count mismatch accepted")
	}
}

func TestHistDeterministicAcrossInsertionOrder(t *testing.T) {
	vals := []float64{5, 0.1, 77, 3, 3, 0, 1e4, 0.1}
	var a, b Hist
	for _, v := range vals {
		a.Add(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		b.Add(vals[i])
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("insertion order leaked into serialisation:\n%s\nvs\n%s", ja, jb)
	}
}
