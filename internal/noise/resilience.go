// Resilience layer: cooperative cancellation and resource budgets.
//
// Every parallel analysis entry point takes a context.Context and
// checks it at batch/shard boundaries. Cancellation never leaks a
// goroutine (each phase joins its workers before returning) and never
// returns nothing: the caller receives a Report explicitly marked
// Incomplete, carrying how many event records were consumed and how
// many per-CPU walkers finished, together with an error that satisfies
// errors.Is against both ErrCancelled and the context's own sentinel.
//
// Budgets degrade instead of failing: an event/byte cap truncates
// ingestion to a prefix (the report covers that prefix exactly and is
// marked Incomplete), and an interruption cap replaces the detailed
// Interruptions list with a deterministic reservoir sample while every
// total — counts, noise nanoseconds, per-key summaries — stays exact.
// The reservoir uses a fixed sim.RNG seed, so the same input and budget
// always retain the same sample, keeping budgeted runs bit-reproducible
// across the sequential and all sharded analysis paths.

package noise

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"osnoise/internal/sim"
	"osnoise/internal/trace"
)

// ErrCancelled is the sentinel wrapped by every analysis entry point
// when its context is cancelled or times out mid-run. The returned
// error also wraps the context's own error, so callers may test either
// errors.Is(err, noise.ErrCancelled) or errors.Is(err,
// context.DeadlineExceeded).
var ErrCancelled = errors.New("noise: analysis cancelled")

// cancelErr builds the typed cancellation error for a done context. It
// runs at most once per analysis, on the cancellation path of the
// Analyze* entry points. Analyze, a hotpath root, reaches it through
// AnalyzeParallel, so the coldpath barrier keeps its fmt call out of the
// hot-path check.
//
//noisevet:coldpath
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
}

// Budget bounds the resources one analysis may consume. The zero value
// imposes no limits of its own. Budgets degrade gracefully rather than
// erroring: event and byte caps truncate ingestion (the report is marked
// Incomplete and covers the consumed prefix exactly), and the
// interruption cap reservoir-samples the retained Interruption records
// while keeping every aggregate total exact.
//
// Every analysis also stops at math.MaxInt32 events, the engine's
// ceiling (about 86 GB of records): its control stream, span records
// and interruption index count events, exits and spans in int32. A
// longer input is analysed as its prefix and marked Incomplete, like any
// budgeted run.
type Budget struct {
	// MaxEvents caps the number of event records ingested; zero means
	// unlimited. Ingestion stops after the cap and the report is marked
	// Incomplete.
	MaxEvents uint64
	// MaxBytes caps the input bytes ingested, counted over the
	// fixed-width event section (MaxBytes/trace.EventSize records); zero
	// means unlimited.
	MaxBytes uint64
	// MaxInterruptions caps the retained Interruption detail records;
	// zero means unlimited. Past the cap the list becomes a
	// deterministic reservoir sample (InterruptionsSampled is set and
	// InterruptionsTotal keeps the exact count); totals stay exact.
	MaxInterruptions int
}

// eventCap folds the event and byte limits and the engine's event
// ceiling into one record count (math.MaxInt32 when unlimited).
func (b Budget) eventCap() uint64 {
	limit := uint64(math.MaxInt32)
	if b.MaxEvents > 0 && b.MaxEvents < limit {
		limit = b.MaxEvents
	}
	if b.MaxBytes > 0 {
		if n := b.MaxBytes / trace.EventSize; n < limit {
			limit = n
		}
	}
	return limit
}

// truncate applies the event cap to an in-memory event stream,
// reporting whether anything was cut.
func (b Budget) truncate(events []trace.Event) ([]trace.Event, bool) {
	if limit := b.eventCap(); uint64(len(events)) > limit {
		return events[:limit], true
	}
	return events, false
}

// eventSpan returns the timestamps of the first and last events (zero
// for none) — the consumed range a report's Seconds is derived from,
// mirroring Trace.Span over a budget-truncated prefix.
func eventSpan(events []trace.Event) (first, last int64) {
	if len(events) == 0 {
		return 0, 0
	}
	return events[0].TS, events[len(events)-1].TS
}

// reservoirSeed fixes the interruption-sampling RNG stream so a
// budgeted report is identical across runs and across the sequential
// and sharded analysis paths.
const reservoirSeed = 0x6e6f697365 // "noise"

// applyInterruptionBudget reservoir-samples the Interruptions list down
// to the budget's cap, preserving the original (CPU-major, time-ordered)
// relative order of the survivors. Algorithm R over the record indices
// with a fixed-seed sim.RNG: deterministic for a given input length and
// cap. A no-op when the cap is unset or not exceeded.
func (r *Report) applyInterruptionBudget(b Budget) {
	k := b.MaxInterruptions
	if k <= 0 || len(r.Interruptions) <= k {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	rng := sim.NewRNG(reservoirSeed)
	for i := k; i < len(r.Interruptions); i++ {
		if j := rng.Intn(i + 1); j < k {
			idx[j] = i
		}
	}
	sort.Ints(idx)
	kept := make([]Interruption, k)
	for i, src := range idx {
		kept[i] = r.Interruptions[src]
	}
	r.InterruptionsTotal = len(r.Interruptions)
	r.Interruptions = kept
	r.InterruptionsSampled = true
}

// progress tracks how far a parallel analysis got, so a cancelled run
// can report its partial consumption. Workers update it only at chunk /
// per-CPU boundaries, keeping the accounting off the hot path.
type progress struct {
	events atomic.Uint64 // event records fully partitioned or decoded
	cpus   atomic.Int64  // per-CPU span walkers completed
}

// markCancelled stamps the partial-result contract onto a report whose
// run was cut short: Incomplete plus the consumption counters.
func (r *Report) markCancelled(p *progress) *Report {
	r.Incomplete = true
	r.EventsConsumed = p.events.Load()
	r.CPUsFinished = int(p.cpus.Load())
	return r
}
