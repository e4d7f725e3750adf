package noise_test

// Epoch equivalence: the analysis range cut by time into 1, 2, 4 or 8
// epochs, each analysed as a window of its own (FromNS/ToNS), must give
// the sequential oracle's report bit for bit on Analyze and on every
// sharded entry point at every shard count. A cut drops the events
// outside its window, so an epoch starts mid-state: exits with no
// entry, preemption windows that never close, owners unknown until the
// next switch. The hand-built traces aim the cuts at the awkward places:
// inside a nested interruption, inside an open preemption window, across
// a region with no application events at all, and across same-timestamp
// span boundaries (which force the interruption sort's tie-break
// fallback).

import (
	"fmt"
	"testing"

	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// epochWindows returns base's options for each of n epochs: the
// analysis range — base's window, or the trace's first to last event
// where base sets no bound — cut into n equal time slices, each a
// window of its own. One epoch is base itself.
func epochWindows(tr *trace.Trace, base noise.Options, n int) []noise.Options {
	if n == 1 || len(tr.Events) == 0 {
		return []noise.Options{base}
	}
	lo, hi := tr.Events[0].TS, tr.Events[0].TS
	for _, ev := range tr.Events {
		lo, hi = min(lo, ev.TS), max(hi, ev.TS)
	}
	if base.FromNS != 0 {
		lo = base.FromNS
	}
	if base.ToNS != 0 {
		hi = base.ToNS
	}
	out := make([]noise.Options, n)
	for k := range out {
		out[k] = base
		out[k].FromNS = lo + (hi-lo)*int64(k)/int64(n)
		out[k].ToNS = lo + (hi-lo)*int64(k+1)/int64(n)
	}
	return out
}

// shardEpochMatrix runs tr through Analyze once per epoch count and
// through every sharded entry point at every shards × epochs
// combination, and compares each epoch's report against the sequential
// oracle's for the same window.
func shardEpochMatrix(t *testing.T, tr *trace.Trace, base noise.Options) {
	t.Helper()
	raw := encodeTrace(t, tr)
	for _, epochs := range []int{1, 2, 4, 8} {
		windows := epochWindows(tr, base, epochs)
		want := make([]*noise.Report, len(windows))
		for k, opts := range windows {
			want[k] = noise.AnalyzeOracle(tr, opts)
		}
		t.Run(fmt.Sprintf("epochs%d/analyze", epochs), func(t *testing.T) {
			for k, opts := range windows {
				compareReports(t, want[k], noise.Analyze(tr, opts))
				if t.Failed() {
					t.Fatalf("epoch %d of %d, window [%d, %d] ns", k+1, epochs, opts.FromNS, opts.ToNS)
				}
			}
		})
		for _, shards := range []int{1, 2, 4, 8} {
			for _, p := range shardedPaths {
				t.Run(fmt.Sprintf("shards%d/epochs%d%s", shards, epochs, p.suffix), func(t *testing.T) {
					for k, opts := range windows {
						got, err := p.run(tr, raw, opts, shards)
						if err != nil {
							t.Fatal(err)
						}
						compareReports(t, want[k], got)
						if t.Failed() {
							t.Fatalf("epoch %d of %d, window [%d, %d] ns", k+1, epochs, opts.FromNS, opts.ToNS)
						}
					}
				})
			}
		}
	}
}

// handEpochMatrix runs the named hand-built trace through
// shardEpochMatrix for every option variant.
func handEpochMatrix(t *testing.T, name string) {
	t.Helper()
	var tr *trace.Trace
	for _, h := range handTraces() {
		if h.name == name {
			tr = h.tr
		}
	}
	if tr == nil {
		t.Fatalf("no hand-built trace %q", name)
	}
	for vname, opts := range optionVariants() {
		t.Run(vname, func(t *testing.T) { shardEpochMatrix(t, tr, opts) })
	}
}

// TestEpochsMatchSequential sweeps shard and epoch counts over
// simulated workload traces, for every option variant: 1/2/4/8 shards
// × 1/2/4/8 epochs, every Report field compared (see compareReports).
func TestEpochsMatchSequential(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		tr := simTrace(seed)
		for name, opts := range optionVariants() {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				shardEpochMatrix(t, tr, opts)
			})
		}
	}
}

// TestEpochCutInsideNestedInterruption cuts a trace whose exits cluster
// inside nested kernel activity while a preemption window is open, so
// epochs start and end between a child's exit and its parent's, and
// between the switch that opens the window and the one that closes it.
func TestEpochCutInsideNestedInterruption(t *testing.T) {
	handEpochMatrix(t, "nestedUnderWindow")
}

// TestEpochZeroAppEvents covers epochs that contain no application
// events at all: over a long run of bare kernel spans no epoch sees a
// switch or an app pid, under both runnable-filter settings.
func TestEpochZeroAppEvents(t *testing.T) {
	handEpochMatrix(t, "noApps")
}

// TestEpochSameTimestampTies cuts spans sharing identical start and end
// timestamps — zero-width and duplicate boundaries — so the
// interruption sort cannot distinguish them by key alone and must fall
// back to the record-order tie-break, in every epoch.
func TestEpochSameTimestampTies(t *testing.T) {
	handEpochMatrix(t, "ties")
}

// TestSingleEpochDegenerate pins the one-epoch case on a full simulated
// workload: the whole trace, no window, in one replay pass matches the
// oracle's report bit for bit on Analyze and at every shard count on
// every sharded entry point.
func TestSingleEpochDegenerate(t *testing.T) {
	tr := simTrace(9)
	raw := encodeTrace(t, tr)
	opts := noise.DefaultOptions()
	want := noise.AnalyzeOracle(tr, opts)
	compareReports(t, want, noise.Analyze(tr, opts))
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			for _, p := range shardedPaths {
				got, err := p.run(tr, raw, opts, shards)
				if err != nil {
					t.Fatalf("path %q: %v", p.suffix, err)
				}
				compareReports(t, want, got)
			}
		})
	}
}
