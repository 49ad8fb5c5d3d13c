// Package metrics provides the measurement primitives the evaluation
// harness reports: running summary statistics, RFC 3550 interarrival
// jitter, and throughput accounting — the quantities behind Table I and
// Figs. 4–8 of the paper.
package metrics

import (
	"encoding/json"
	"math"
	"time"
)

// Summary accumulates running statistics (Welford's algorithm) without
// retaining samples.
type Summary struct {
	n          int
	mean, m2   float64
	min, max   float64
	hasSamples bool
}

// Add folds one sample in.
func (s *Summary) Add(x float64) {
	s.n++
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
	if !s.hasSamples || x < s.min {
		s.min = x
	}
	if !s.hasSamples || x > s.max {
		s.max = x
	}
	s.hasSamples = true
}

// AddDuration folds a duration sample in, in seconds.
func (s *Summary) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the sample count.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean. With no samples it returns NaN: an empty
// summary has no mean, and a silent 0 would render as a real measurement
// in table and JSON reporters.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Std returns the sample standard deviation (0 with < 2 samples).
func (s *Summary) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest sample (NaN with no samples).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.min
}

// Max returns the largest sample (NaN with no samples).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.max
}

// MeanDuration returns the mean as a duration, for time-valued summaries.
// Durations cannot carry NaN, so the empty case is gated on N() instead:
// with no samples it returns 0 and callers that present measurements must
// check N() first.
func (s *Summary) MeanDuration() time.Duration {
	if s.n == 0 {
		return 0
	}
	return time.Duration(s.mean * float64(time.Second))
}

// Merge folds other into s, producing the summary that Adding every one
// of other's samples to s would have produced (up to floating-point
// rounding in mean and variance; min, max and N are exact). It is the
// combine step the parallel sweep runner uses to aggregate per-run
// summaries into one artifact.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	// Chan et al.'s parallel variance combination.
	n := float64(s.n + other.n)
	delta := other.mean - s.mean
	s.m2 += other.m2 + delta*delta*float64(s.n)*float64(other.n)/n
	s.mean += delta * float64(other.n) / n
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n += other.n
}

// summaryJSON is the wire form of a Summary: the sufficient statistics,
// so an unmarshalled summary can keep Adding and Merging losslessly.
type summaryJSON struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON encodes the sufficient statistics. An empty summary
// marshals as {"n":0} — never as zero-valued measurements, and never as
// the NaN that Min/Max report (JSON has no NaN).
func (s Summary) MarshalJSON() ([]byte, error) {
	if s.n == 0 {
		return []byte(`{"n":0}`), nil
	}
	return json.Marshal(summaryJSON{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max})
}

// UnmarshalJSON restores a summary written by MarshalJSON.
func (s *Summary) UnmarshalJSON(b []byte) error {
	var w summaryJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = Summary{n: w.N, mean: w.Mean, m2: w.M2, min: w.Min, max: w.Max, hasSamples: w.N > 0}
	return nil
}

// Jitter is the RFC 3550 §6.4.1 interarrival jitter estimator iperf uses
// for its UDP jitter report (Fig. 8): a smoothed mean deviation of
// transit-time differences, J += (|D| − J) / 16.
type Jitter struct {
	j       float64 // seconds
	last    time.Duration
	hasLast bool
	n       int
}

// Sample folds in the transit time (receive time − send time) of one
// packet.
func (j *Jitter) Sample(transit time.Duration) {
	if j.hasLast {
		d := math.Abs((transit - j.last).Seconds())
		j.j += (d - j.j) / 16
		j.n++
	}
	j.last = transit
	j.hasLast = true
}

// Value returns the current jitter estimate.
func (j *Jitter) Value() time.Duration {
	return time.Duration(j.j * float64(time.Second))
}

// N returns the number of differences folded in.
func (j *Jitter) N() int { return j.n }

// ClassifierStats counts the work a flow classifier performed: how many
// lookups ran, how many mask groups the tuple-space search probed for
// them, and how many matched nothing. Masks is a gauge (current
// mask-group count), not a counter.
type ClassifierStats struct {
	Lookups uint64 `json:"lookups"`
	// MicroflowHits is never incremented: the cache is gone, bench/packetnet.go still reads the field.
	MicroflowHits uint64 `json:"microflow_hits"`
	MaskProbes    uint64 `json:"mask_probes"`
	Misses        uint64 `json:"misses"`
	Masks         int    `json:"masks"`
}

// Throughput converts a byte count over an interval to bits per second.
func Throughput(bytes uint64, interval time.Duration) float64 {
	if interval <= 0 {
		return 0
	}
	return float64(bytes) * 8 / interval.Seconds()
}

// Mbps converts bits per second to megabits per second for reporting.
func Mbps(bitsPerSec float64) float64 { return bitsPerSec / 1e6 }
