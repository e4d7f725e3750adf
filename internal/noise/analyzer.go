package noise

import (
	"context"

	"osnoise/internal/trace"
)

// Options tunes the analysis. The zero value is NOT ready to use; start
// from DefaultOptions.
type Options struct {
	// AppPIDs identifies the application processes (the noise victims).
	// Nil means every non-zero pid is treated as an application.
	AppPIDs map[int64]bool

	// AttributeNesting subtracts nested activity time from enclosing
	// spans so each event's own cost is exact. Disabling it reproduces
	// the double counting naive instrumentation suffers (ablation).
	AttributeNesting bool

	// RunnableFilter applies the paper's rule that kernel activity is
	// noise only when an application process is running or runnable on
	// the CPU. Disabling it counts every kernel span as noise (ablation).
	RunnableFilter bool

	// GapNS merges noise activities separated by at most this much user
	// time into one interruption (the spike an external benchmark sees).
	GapNS int64

	// KeepDurations retains raw per-event durations for histograms.
	KeepDurations bool

	// FromNS/ToNS restrict the analysis to a time window (both zero =
	// whole trace; ToNS zero = to the end of the trace) — the zooming
	// workflow of the paper's §III-C. Events outside the window are
	// ignored; spans straddling the boundary are dropped like any other
	// truncated span. Report.Seconds covers the window, not the trace.
	FromNS, ToNS int64

	// Budget bounds the resources the analysis may consume; the zero
	// value imposes no limits. Event/byte caps truncate ingestion to a
	// prefix (the report is marked Incomplete), the interruption cap
	// reservoir-samples the retained detail records. See Budget.
	Budget Budget
}

// DefaultOptions returns the analysis configuration used throughout the
// paper reproduction.
func DefaultOptions() Options {
	return Options{
		AttributeNesting: true,
		RunnableFilter:   true,
		GapNS:            1000,
		KeepDurations:    true,
	}
}

// openSpan is a kernel activity whose exit has not been seen yet.
type openSpan struct {
	key       Key
	start     int64
	childWall int64
	exitID    trace.ID
}

// window is an open preemption window for a runnable-but-preempted task.
type window struct {
	start      int64
	cpu        int32
	kernelWall int64
}

// cpuArg reports whether a sched_migrate CPU argument names one of the
// trace's ncpu CPUs. Only such an argument counts: an out-of-range
// source clears no owner, and an out-of-range destination sets no owner
// and leaves the task's preemption window where it is. Every engine
// applies this one rule.
func cpuArg(cpu int64, ncpu int) bool {
	return cpu >= 0 && cpu < int64(ncpu)
}

// cpuState is the replay's per-CPU scheduler state.
type cpuState struct {
	owner   int64 // pid of the app running or runnable-waiting here
	current int64 // pid currently running (0 = idle)
}

// appSet identifies the application processes (the noise victims).
// nil treats every non-zero pid as an application.
type appSet map[int64]bool

// has reports whether pid is an application process.
func (s appSet) has(pid int64) bool {
	return pid != 0 && (s == nil || s[pid])
}

// newReport starts the report every entry point fills, and resolves the
// application set its spans are classified against. first and last are
// the timestamps of the first and last consumed events (zero when none
// was consumed). Seconds spans them, or the analysis window when one is
// set; a window with no end runs to the last consumed event. procs reads
// the trace's process table; it is called only when opts.AppPIDs leaves
// the application set to the trace.
func newReport(cpus int, first, last int64, opts *Options, procs func() ([]trace.ProcInfo, error)) (*Report, appSet, error) {
	r := &Report{CPUs: cpus, Seconds: float64(last-first) / 1e9}
	switch {
	case opts.ToNS > opts.FromNS:
		r.Seconds = float64(opts.ToNS-opts.FromNS) / 1e9
	case opts.ToNS == 0 && opts.FromNS > 0:
		r.Seconds = float64(max(last-opts.FromNS, 0)) / 1e9
	}
	for k := Key(0); k < NumKeys; k++ {
		r.PerKey[k] = &KeyStats{Key: k}
	}
	apps := appSet(opts.AppPIDs)
	if apps == nil {
		// The trace's embedded process table (LTTng metadata analogue)
		// identifies the application processes for offline analysis.
		table, err := procs()
		if err != nil {
			return nil, nil, err
		}
		apps = (&trace.Trace{Procs: table}).AppPIDs()
	}
	return r, apps, nil
}

// Analyze runs the full noise analysis over a collected trace. It is
// the sharded engine at one shard: AnalyzeParallel with
// context.Background(), which is never cancelled, so the call cannot
// fail. An event/byte budget in opts truncates the analysis to the
// trace's prefix (the report is then marked Incomplete and Seconds
// covers the consumed prefix only); so does the engine's event ceiling
// (see Budget).
//
//noisevet:hotpath
func Analyze(tr *trace.Trace, opts Options) *Report {
	r, _ := AnalyzeParallel(context.Background(), tr, opts, 1)
	return r
}

// record accumulates one finished span into the report: per-key summary
// (and raw duration when keep is set), the noise breakdown, and the
// global span list. The replay and the sequential test oracle feed every
// span through this single method, in the same global order, which is
// what makes their reports bit-identical (floating-point accumulation is
// order-sensitive).
func (r *Report) record(s Span, keep bool) {
	ks := r.PerKey[s.Key]
	ks.Summary.Add(s.Own)
	if keep {
		ks.Durations = append(ks.Durations, s.Own)
	}
	if s.Noise {
		cat := CategoryOf(s.Key)
		r.Breakdown[cat] += s.Own
		r.TotalNoiseNS += s.Own
	}
	r.Spans = append(r.Spans, s)
}
