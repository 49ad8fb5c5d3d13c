package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// histGamma is the log-bucket growth factor of Hist. Buckets cover
// (gamma^(i-1), gamma^i], so any recorded value is reproduced by
// Quantile with at most (gamma-1)/(gamma+1) ≈ 1% relative error. The
// factor is a package constant, not a field: two sketches are only
// mergeable when their bucket boundaries coincide, and a single fleet-
// wide resolution keeps every artifact in the repository comparable.
const histGamma = 1.02

// histMaxBuckets bounds the sparse bucket count. log_1.02 spans ~116
// buckets per decade, so 8192 covers ~70 decades — far beyond any
// physical quantity this simulator measures. The bound exists to keep a
// corrupted artifact from allocating unboundedly on unmarshal.
const histMaxBuckets = 8192

// Hist is a mergeable log-bucketed histogram sketch (DDSketch-flavoured):
// the streaming replacement for per-packet trace capture on fluid paths.
// It retains no samples — only sparse bucket counts at a fixed relative
// resolution plus exact N/Sum/Min/Max — so a million-flow run can record
// a per-flow goodput distribution in a few kilobytes.
//
// Determinism: Add, Merge and Quantile are pure integer/float arithmetic
// over sorted bucket indexes; no map iteration order ever escapes.
// MarshalJSON emits buckets sorted by index, so equal sketches serialise
// to equal bytes and sweep artifacts stay byte-identical across worker
// counts and partitions.
//
// The zero value is an empty, ready-to-use sketch.
type Hist struct {
	counts map[int32]uint64
	// zeros counts samples ≤ 0 (goodput of a flow that never delivered,
	// a zero-length queue): they have no logarithm, so they get a
	// dedicated bucket at value 0.
	zeros uint64

	n        uint64
	sum      float64
	min, max float64
}

// invGammaLog caches 1/ln(gamma) for bucket indexing.
var invGammaLog = 1 / math.Log(histGamma)

// bucketOf returns the bucket index for a positive value: the smallest i
// with gamma^i >= v. Artifacts depend on math.Log's bits here, so they
// are pinned to amd64's (TestLibmPinned).
func bucketOf(v float64) int32 {
	return int32(math.Ceil(math.Log(v) * invGammaLog))
}

// bucketValue returns the representative value reported for bucket i:
// the midpoint of (gamma^(i-1), gamma^i], which halves the worst-case
// relative error.
func bucketValue(i int32) float64 {
	hi := math.Pow(histGamma, float64(i))
	return hi * 2 / (1 + histGamma)
}

// Add folds one sample in. NaN is dropped (an empty measurement is not a
// measurement); ±Inf is dropped for the same reason JSON artifacts drop
// it — it cannot round-trip.
func (h *Hist) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	if v <= 0 {
		h.zeros++
		return
	}
	if h.counts == nil {
		h.counts = make(map[int32]uint64)
	}
	h.counts[bucketOf(v)]++
}

// N returns the sample count.
func (h *Hist) N() uint64 { return h.n }

// Sum returns the exact sample sum.
func (h *Hist) Sum() float64 { return h.sum }

// Mean returns the exact sample mean (NaN when empty, matching Summary).
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.sum / float64(h.n)
}

// Min returns the exact smallest sample (NaN when empty).
func (h *Hist) Min() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.min
}

// Max returns the exact largest sample (NaN when empty).
func (h *Hist) Max() float64 {
	if h.n == 0 {
		return math.NaN()
	}
	return h.max
}

// Buckets returns the number of occupied log buckets (excluding the zero
// bucket) — a size gauge for reporters.
func (h *Hist) Buckets() int { return len(h.counts) }

// Quantile returns the q-quantile (q in [0,1]) to within the sketch's
// relative resolution; exact Min/Max are returned at the extremes. NaN
// when empty or q is out of range.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 || math.IsNaN(q) || q < 0 || q > 1 {
		return math.NaN()
	}
	if q == 0 {
		return h.min
	}
	if q == 1 {
		return h.max
	}
	// rank is the 1-based index of the order statistic to report.
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank == 0 {
		rank = 1
	}
	if rank <= h.zeros {
		return 0
	}
	rank -= h.zeros
	var cum uint64
	for _, idx := range h.sortedIndexes() {
		cum += h.counts[idx]
		if cum >= rank {
			v := bucketValue(idx)
			// Clamp into the exact observed range: the edge buckets'
			// midpoints can overshoot min/max.
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge folds other into h: the result is identical to having Added every
// one of other's samples (bucket counts and N/Sum/Min/Max are all exact
// under merge, unlike Summary's floating-point mean/variance combine).
func (h *Hist) Merge(other Hist) {
	if other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.n == 0 || other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
	h.zeros += other.zeros
	if len(other.counts) > 0 && h.counts == nil {
		h.counts = make(map[int32]uint64, len(other.counts))
	}
	for idx, c := range other.counts {
		h.counts[idx] += c
	}
}

// sortedIndexes returns the occupied bucket indexes in ascending order.
func (h *Hist) sortedIndexes() []int32 {
	idxs := make([]int32, 0, len(h.counts))
	for i := range h.counts {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	return idxs
}

// histJSON is the wire form: parallel sorted arrays of bucket index and
// count, plus the exact scalars. Sorting makes equal sketches marshal to
// equal bytes.
type histJSON struct {
	N     uint64   `json:"n"`
	Sum   float64  `json:"sum,omitempty"`
	Min   float64  `json:"min,omitempty"`
	Max   float64  `json:"max,omitempty"`
	Zeros uint64   `json:"zeros,omitempty"`
	Idx   []int32  `json:"idx,omitempty"`
	Count []uint64 `json:"count,omitempty"`
}

// MarshalJSON encodes the sketch deterministically; an empty sketch
// marshals as {"n":0}.
func (h Hist) MarshalJSON() ([]byte, error) {
	if h.n == 0 {
		return []byte(`{"n":0}`), nil
	}
	w := histJSON{N: h.n, Sum: h.sum, Min: h.min, Max: h.max, Zeros: h.zeros}
	for _, idx := range h.sortedIndexes() {
		w.Idx = append(w.Idx, idx)
		w.Count = append(w.Count, h.counts[idx])
	}
	return json.Marshal(w)
}

// UnmarshalJSON restores a sketch written by MarshalJSON. The restored
// sketch keeps Adding and Merging losslessly.
func (h *Hist) UnmarshalJSON(b []byte) error {
	var w histJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	if len(w.Idx) != len(w.Count) {
		return fmt.Errorf("metrics: hist idx/count length mismatch (%d vs %d)", len(w.Idx), len(w.Count))
	}
	if len(w.Idx) > histMaxBuckets {
		return fmt.Errorf("metrics: hist has %d buckets (max %d)", len(w.Idx), histMaxBuckets)
	}
	*h = Hist{n: w.N, sum: w.Sum, min: w.Min, max: w.Max, zeros: w.Zeros}
	if len(w.Idx) > 0 {
		h.counts = make(map[int32]uint64, len(w.Idx))
		for i, idx := range w.Idx {
			h.counts[idx] += w.Count[i]
		}
	}
	return nil
}
