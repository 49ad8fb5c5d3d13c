package main

import (
	"regexp"
	"strings"
	"testing"
	"time"

	"netco/internal/experiment"
)

func tinyRound(t *testing.T, name string, cfg roundCfg) round {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	cfg.tiny, cfg.rec = true, newSpanRecorder()
	r := w.run(cfg)
	if len(r.errs) > 0 {
		t.Fatalf("%s: round failed its own checks: %v", name, r.errs)
	}
	return r
}

// Every workload is a pure function of its seed: two rounds agree, the
// reference variant agrees with the main one, and another seed does not.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			a := tinyRound(t, w.name, roundCfg{seed: 1})
			b := tinyRound(t, w.name, roundCfg{seed: 1})
			if a.digest != b.digest {
				t.Fatalf("same seed, different digests:\n%s\n%s", a.digest, b.digest)
			}
			if w.hasRef {
				if ref := tinyRound(t, w.name, roundCfg{seed: 1, ref: true}); ref.digest != a.digest {
					t.Fatalf("reference variant diverged:\n%s\n%s", ref.digest, a.digest)
				}
			}
			if c := tinyRound(t, w.name, roundCfg{seed: 2}); c.digest == a.digest {
				t.Fatalf("seeds 1 and 2 gave the same digest: the seed does not reach the inputs")
			}
		})
	}
}

func TestFatTreePartitionsShareOneDigest(t *testing.T) {
	serial := tinyRound(t, "fattree_udp", roundCfg{seed: 3})
	par := tinyRound(t, "fattree_udp_par2", roundCfg{seed: 3})
	if serial.digest != par.digest {
		t.Fatalf("partitions 1 and 2 diverged:\n%s\n%s", serial.digest, par.digest)
	}
	if serial.counts["traffic.udp_unique"] == 0 {
		t.Fatal("tiny fat tree delivered nothing")
	}
}

// The bench carries its own copy of RunScale's fat-tree builder (the
// original exposes neither payload nor its nodes). At RunScale's own
// parameters the copy must reproduce RunScale's digest, event count
// aside, so it cannot drift silently.
func TestFatTreeMatchesRunScale(t *testing.T) {
	const arity = 4
	plan := packetPlan{warmup: 5 * time.Millisecond, window: 20 * time.Millisecond, drain: 20 * time.Millisecond}
	for _, partitions := range []int{1, 2} {
		p := experiment.DefaultParams()
		p.Partitions, p.Workers = partitions, partitions
		want := experiment.RunScale(p, arity, plan.warmup+plan.window).Digest
		want = regexp.MustCompile(`exec=\d+ `).ReplaceAllString(want, "")

		c := fatTreeCfg{arity: arity, payload: 512, rate: 10e6, partitions: partitions, workers: partitions}
		r := fatTreeRound(roundCfg{rec: newSpanRecorder()}, c, plan)
		flows, rest, _ := strings.Cut(r.digest, "|")
		got := flows + rest[strings.LastIndex(rest, "now="):]
		if got != want {
			t.Fatalf("partitions %d: bench fat tree diverged from RunScale:\n got %s\nwant %s", partitions, got, want)
		}
	}
}
