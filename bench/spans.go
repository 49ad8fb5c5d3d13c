package main

import (
	"os"
	"path/filepath"
	"time"
)

// span is one phase the bench called itself: name, start and end as
// nanoseconds since the recorder's origin, and the enclosing span's id
// (-1 at the top).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	// Synthetic marks spans laid out from durations the program reported
	// (RunHybrid/RunChurn build timers) instead of bracketed by the bench.
	Synthetic bool `json:"synthetic,omitempty"`
}

// spanRecorder keeps spans in memory; a traced run writes them at exit.
// It is used from the bench's own goroutine only.
type spanRecorder struct {
	origin time.Time
	spans  []span
	stack  []int
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

func (r *spanRecorder) since() int64 { return int64(time.Since(r.origin)) }

func (r *spanRecorder) top() int {
	if n := len(r.stack); n > 0 {
		return r.stack[n-1]
	}
	return -1
}

// begin opens a span under the innermost open one.
func (r *spanRecorder) begin(name string) {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Name: name, StartNS: r.since(), Parent: r.top()})
	r.stack = append(r.stack, id)
}

// end closes the innermost open span and returns its duration.
func (r *spanRecorder) end() time.Duration {
	i := r.top()
	r.stack = r.stack[:len(r.stack)-1]
	r.spans[i].EndNS = r.since()
	return time.Duration(r.spans[i].EndNS - r.spans[i].StartNS)
}

// timed runs fn inside a span.
func (r *spanRecorder) timed(name string, fn func()) time.Duration {
	r.begin(name)
	fn()
	return r.end()
}

// synthetic appends back-to-back children of the innermost open span
// from reported durations, starting at the parent's start.
func (r *spanRecorder) synthetic(names []string, ms []float64) {
	parent := r.top()
	at := r.spans[parent].StartNS
	for k, name := range names {
		d := int64(ms[k] * 1e6)
		r.spans = append(r.spans, span{ID: len(r.spans), Name: name, StartNS: at, EndNS: at + d, Parent: parent, Synthetic: true})
		at += d
	}
}

// traceFile is what bench/out/trace_<workload>.json holds.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Provenance provenance         `json:"provenance"`
	Spans      []span             `json:"spans"`
	Window     map[string]float64 `json:"window_deltas"`
	Metrics    map[string]metric  `json:"per_layer"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, marshalIndented(tf), 0o644)
}
