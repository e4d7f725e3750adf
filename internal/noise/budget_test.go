package noise_test

// Budget degradation tests: resource caps must degrade the report
// gracefully — truncated prefix, sampled detail, exact totals — and do
// so bit-identically across the sequential oracle and every entry
// point: Analyze and the parallel, stream, and raw analysis paths.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// runAllPaths analyses the same trace through the sequential oracle and
// every entry point and asserts the five reports are bit-identical,
// returning the oracle's.
func runAllPaths(t *testing.T, tr *trace.Trace, opts noise.Options, shards int) *noise.Report {
	t.Helper()
	raw := encodeTrace(t, tr)
	want := noise.AnalyzeOracle(tr, opts)
	compareReports(t, want, noise.Analyze(tr, opts))
	for _, p := range shardedPaths {
		got, err := p.run(tr, raw, opts, shards)
		if err != nil {
			t.Fatalf("path %q: %v", p.suffix, err)
		}
		compareReports(t, want, got)
	}
	return want
}

// TestEventBudgetTruncatesPrefix caps ingestion by event count: the
// report must cover exactly the allowed prefix and be marked
// Incomplete, identically on every path.
func TestEventBudgetTruncatesPrefix(t *testing.T) {
	tr := simTrace(6)
	if len(tr.Events) < 1000 {
		t.Fatalf("trace too small for the test: %d events", len(tr.Events))
	}
	cap64 := uint64(len(tr.Events) / 2)

	opts := noise.DefaultOptions()
	opts.Budget = noise.Budget{MaxEvents: cap64}
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			r := runAllPaths(t, tr, opts, shards)
			if !r.Incomplete {
				t.Fatal("truncated report not marked Incomplete")
			}
			// The budgeted run must equal an unbudgeted run over the prefix.
			prefix := &trace.Trace{CPUs: tr.CPUs, Events: tr.Events[:cap64], Procs: tr.Procs}
			ref := noise.AnalyzeOracle(prefix, noise.DefaultOptions())
			if r.TotalNoiseNS != ref.TotalNoiseNS || r.Breakdown != ref.Breakdown {
				t.Fatalf("budgeted run diverges from prefix run: noise %d vs %d", r.TotalNoiseNS, ref.TotalNoiseNS)
			}
		})
	}
}

// TestByteBudgetMatchesEventBudget caps by bytes: MaxBytes rounds down
// to whole event records, so every entry point must reproduce the
// oracle's equivalent MaxEvents run exactly.
func TestByteBudgetMatchesEventBudget(t *testing.T) {
	tr := simTrace(2)
	n := uint64(len(tr.Events)) * 2 / 3

	byEvents := noise.DefaultOptions()
	byEvents.Budget = noise.Budget{MaxEvents: n}
	byBytes := noise.DefaultOptions()
	// Add a partial record's worth of slack: it must not buy an event.
	byBytes.Budget = noise.Budget{MaxBytes: n*trace.EventSize + trace.EventSize - 1}

	a := noise.AnalyzeOracle(tr, byEvents)
	b := runAllPaths(t, tr, byBytes, 2)
	compareReports(t, a, b)
	if a.EventsConsumed != n || b.EventsConsumed != n {
		t.Fatalf("consumed %d/%d, want %d", a.EventsConsumed, b.EventsConsumed, n)
	}
}

// TestInterruptionBudgetSamples caps the retained detail records: the
// list shrinks to a deterministic reservoir sample while every
// aggregate total stays exact.
func TestInterruptionBudgetSamples(t *testing.T) {
	tr := simTrace(9)
	full := noise.AnalyzeOracle(tr, noise.DefaultOptions())
	if len(full.Interruptions) < 50 {
		t.Fatalf("trace too quiet for the test: %d interruptions", len(full.Interruptions))
	}
	const keep = 25

	opts := noise.DefaultOptions()
	opts.Budget = noise.Budget{MaxInterruptions: keep}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			r := runAllPaths(t, tr, opts, shards)
			if !r.InterruptionsSampled {
				t.Fatal("capped report not marked sampled")
			}
			if len(r.Interruptions) != keep {
				t.Fatalf("kept %d records, want %d", len(r.Interruptions), keep)
			}
			if r.InterruptionsTotal != len(full.Interruptions) {
				t.Fatalf("total %d, want exact %d", r.InterruptionsTotal, len(full.Interruptions))
			}
			// Totals stay exact: sampling touches only the detail list.
			if r.TotalNoiseNS != full.TotalNoiseNS || r.Breakdown != full.Breakdown {
				t.Fatal("sampling changed aggregate totals")
			}
			if r.Incomplete {
				t.Fatal("sampling alone must not mark the report Incomplete")
			}
			// The sample is a subsequence of the full list (order preserved).
			j := 0
			for i := range full.Interruptions {
				if j < keep && reflect.DeepEqual(r.Interruptions[j], full.Interruptions[i]) {
					j++
				}
			}
			if j != keep {
				t.Fatalf("sample is not an ordered subsequence of the full list (%d/%d matched)", j, keep)
			}
		})
	}
}

// TestReservoirDeterministic locks the fixed-seed reservoir: the same
// input and cap always keep the same records.
func TestReservoirDeterministic(t *testing.T) {
	tr := simTrace(9)
	opts := noise.DefaultOptions()
	opts.Budget = noise.Budget{MaxInterruptions: 10}
	a := noise.Analyze(tr, opts)
	b := noise.Analyze(tr, opts)
	if !reflect.DeepEqual(a.Interruptions, b.Interruptions) {
		t.Fatal("same input and cap kept different records")
	}
}

// TestZeroBudgetIsUnlimited locks the zero-value contract.
func TestZeroBudgetIsUnlimited(t *testing.T) {
	tr := simTrace(1)
	plain := noise.AnalyzeOracle(tr, noise.DefaultOptions())
	opts := noise.DefaultOptions()
	opts.Budget = noise.Budget{}
	budgeted := noise.Analyze(tr, opts)
	compareReports(t, plain, budgeted)
	if budgeted.Incomplete || budgeted.InterruptionsSampled {
		t.Fatal("zero budget degraded the report")
	}
}

// TestEventCapCeiling pins the engine's event ceiling: every budget,
// the zero one included, folds to at most math.MaxInt32 records, the
// most the engine's int32 counters can index, so a longer input is
// analysed as its prefix and marked Incomplete.
func TestEventCapCeiling(t *testing.T) {
	const ceiling = math.MaxInt32
	for _, c := range []struct {
		name string
		b    noise.Budget
		want uint64
	}{
		{"zero", noise.Budget{}, ceiling},
		{"interruptionsOnly", noise.Budget{MaxInterruptions: 5}, ceiling},
		{"eventsBelow", noise.Budget{MaxEvents: 1000}, 1000},
		{"eventsAtCeiling", noise.Budget{MaxEvents: ceiling}, ceiling},
		{"eventsAbove", noise.Budget{MaxEvents: ceiling + 1}, ceiling},
		{"eventsMax", noise.Budget{MaxEvents: math.MaxUint64}, ceiling},
		{"bytesBelow", noise.Budget{MaxBytes: 1000 * trace.EventSize}, 1000},
		{"bytesAbove", noise.Budget{MaxBytes: (ceiling + 1) * trace.EventSize}, ceiling},
		{"bytesMax", noise.Budget{MaxBytes: math.MaxUint64}, ceiling},
		{"smallerWins", noise.Budget{MaxEvents: 7, MaxBytes: 100 * trace.EventSize}, 7},
	} {
		if got := noise.EventCap(c.b); got != c.want {
			t.Errorf("%s: event cap %d, want %d", c.name, got, c.want)
		}
	}
}
