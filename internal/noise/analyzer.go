package noise

import (
	"sort"

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

// cpuState is the per-CPU walking state.
type cpuState struct {
	stack   []openSpan
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

// Analyze runs the full noise analysis over a collected trace. An
// event/byte budget in opts truncates the analysis to the trace's
// prefix (the report is then marked Incomplete and Seconds covers the
// consumed prefix only).
//
//noisevet:hotpath
func Analyze(tr *trace.Trace, opts Options) *Report {
	events, truncated := opts.Budget.truncate(tr.Events)
	first, last := eventSpan(events)
	// The process table is already in memory: reading it cannot fail.
	r, apps, _ := newReport(tr.CPUs, first, last, &opts, func() ([]trace.ProcInfo, error) { return tr.Procs, nil })
	r.Incomplete = truncated
	r.EventsConsumed = uint64(len(events))

	cpus := make([]cpuState, tr.CPUs)
	windows := make(map[int64]*window) // open preemption windows per pid
	lastRunner := make([]int64, tr.CPUs)

	record := func(s Span) { r.record(s, opts.KeepDurations) }

	windowed := opts.FromNS != 0 || opts.ToNS != 0
	for _, ev := range events {
		if windowed && (ev.TS < opts.FromNS || (opts.ToNS > 0 && ev.TS > opts.ToNS)) {
			continue
		}
		if ev.CPU < 0 || int(ev.CPU) >= len(cpus) {
			r.Dropped++
			continue
		}
		cs := &cpus[ev.CPU]
		switch {
		case ev.ID.IsEntry():
			cs.stack = append(cs.stack, openSpan{
				key:    keyOfSpan(ev.ID, ev.Arg1),
				start:  ev.TS,
				exitID: ev.ID.ExitFor(),
			})

		case ev.ID.IsExit():
			if len(cs.stack) == 0 {
				r.Dropped++ // span began before tracing started
				continue
			}
			top := cs.stack[len(cs.stack)-1]
			if top.exitID != ev.ID {
				// Corrupt nesting; drop the whole stack for this CPU.
				r.Dropped += len(cs.stack)
				cs.stack = cs.stack[:0]
				continue
			}
			cs.stack = cs.stack[:len(cs.stack)-1]
			wall := ev.TS - top.start
			own := wall
			if opts.AttributeNesting {
				own = wall - top.childWall
				if own < 0 {
					own = 0
				}
			}
			if len(cs.stack) > 0 {
				cs.stack[len(cs.stack)-1].childWall += wall
			}
			cat := CategoryOf(top.key)
			isNoise := cat.IsNoise()
			if opts.RunnableFilter && cs.owner == 0 {
				isNoise = false
			}
			record(Span{
				Key: top.key, CPU: ev.CPU, Start: top.start,
				Wall: wall, Own: own, PID: cs.owner, Noise: isNoise,
			})
			// Top-level kernel time inside a preemption window is
			// charged to its own key; subtract it from the window so
			// the wait is not double counted.
			if len(cs.stack) == 0 && cs.owner != 0 && cs.current != cs.owner {
				if w := windows[cs.owner]; w != nil && w.cpu == ev.CPU {
					w.kernelWall += wall
				}
			}

		case ev.ID == trace.EvSchedSwitch:
			prev, next, prevState := ev.Arg1, ev.Arg2, ev.Arg3
			if apps.has(prev) {
				if prevState == trace.TaskStateRunning {
					// Preempted while runnable: open a window.
					windows[prev] = &window{start: ev.TS, cpu: ev.CPU}
					if cs.owner == 0 {
						cs.owner = prev
					}
				} else {
					// Voluntary block: no victim remains.
					delete(windows, prev)
					if cs.owner == prev {
						cs.owner = 0
					}
				}
			}
			if apps.has(next) {
				if w := windows[next]; w != nil {
					preempt := (ev.TS - w.start) - w.kernelWall
					if preempt > 0 {
						culprit := lastRunner[w.cpu]
						if culprit == next {
							culprit = 0
						}
						record(Span{
							Key: KeyPreemption, CPU: w.cpu, Start: w.start,
							Wall: preempt, Own: preempt, PID: next,
							Culprit: culprit, Noise: true,
						})
					}
					delete(windows, next)
				}
				cs.owner = next
			}
			cs.current = next
			if next != 0 {
				lastRunner[ev.CPU] = next
			}

		case ev.ID == trace.EvSchedMigrate:
			pid, from, to := ev.Arg1, ev.Arg2, ev.Arg3
			if cpuArg(from, len(cpus)) && cpus[from].owner == pid {
				cpus[from].owner = 0
			}
			if cpuArg(to, len(cpus)) {
				if w := windows[pid]; w != nil {
					w.cpu = int32(to)
				}
				if cpus[to].owner == 0 && apps.has(pid) {
					cpus[to].owner = pid
				}
			}

		case ev.ID == trace.EvProcessExit:
			delete(windows, ev.Arg1)
		}
	}
	// Unclosed spans and windows at the trace boundary are dropped.
	for i := range cpus {
		r.Dropped += len(cpus[i].stack)
	}
	r.Dropped += len(windows)

	r.buildInterruptions(opts.GapNS)
	r.applyInterruptionBudget(opts.Budget)
	return r
}

// record accumulates one finished span into the report: per-key summary
// (and raw duration when keep is set), the noise breakdown, and the
// global span list. Both the sequential and the parallel analyzers feed
// every span through this single method, in the same global order, which
// is what makes their reports bit-identical (floating-point accumulation
// is order-sensitive).
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

// noiseByCPU groups the report's noise spans per CPU, indexed by CPU id
// (span CPUs are validated against the CPU count at ingestion, so the
// index is always in range), and returns the occupied CPU ids in
// ascending order. The slice index replaces a map so the grouping is
// iteration-order-free and allocation-light on the Analyze hot path.
func (r *Report) noiseByCPU() ([][]Span, []int32) {
	byCPU := make([][]Span, r.CPUs)
	for _, s := range r.Spans {
		if s.Noise {
			byCPU[s.CPU] = append(byCPU[s.CPU], s)
		}
	}
	cpuIDs := make([]int32, 0, len(byCPU))
	for cpu, spans := range byCPU {
		if len(spans) > 0 {
			cpuIDs = append(cpuIDs, int32(cpu))
		}
	}
	return byCPU, cpuIDs
}

// interruptionsForCPU groups one CPU's noise spans (sorted in place) into
// maximal interruptions separated by more than gap nanoseconds of user
// time. CPUs are independent here — interruption grouping never crosses
// a CPU — so the parallel analyzer runs this per CPU concurrently and
// concatenates in CPU order, reproducing the sequential output exactly.
//
// The sort must be STABLE: two spans sharing both start and end (same-
// timestamp boundaries) keep their record order, the contract the
// parallel path reproduces with an explicit record-index tie-break
// (keyCmpTotal). An unstable sort here would order tied components
// arbitrarily and the two paths could diverge.
func interruptionsForCPU(cpu int32, spans []Span, gap int64) []Interruption {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].Start+spans[i].Wall > spans[j].Start+spans[j].Wall
	})
	// Worst case every span is its own interruption; the slice is copied
	// into the report and discarded, so the over-cap is transient.
	out := make([]Interruption, 0, len(spans))
	var cur *Interruption
	for _, s := range spans {
		end := s.Start + s.Wall
		if cur != nil && s.Start-cur.End <= gap {
			cur.Components = append(cur.Components, Component{Key: s.Key, Start: s.Start, Own: s.Own})
			cur.Total += s.Own
			if end > cur.End {
				cur.End = end
			}
			continue
		}
		if cur != nil {
			out = append(out, *cur)
		}
		cur = &Interruption{
			CPU: cpu, Start: s.Start, End: end, Total: s.Own,
			Components: []Component{{Key: s.Key, Start: s.Start, Own: s.Own}},
		}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out
}

// buildInterruptions groups adjacent noise spans per CPU into the spikes
// an external micro-benchmark would observe.
func (r *Report) buildInterruptions(gap int64) {
	byCPU, cpuIDs := r.noiseByCPU()
	for _, cpu := range cpuIDs {
		r.Interruptions = append(r.Interruptions, interruptionsForCPU(cpu, byCPU[cpu], gap)...)
	}
}
