package noise

// The sequential oracle: the analysis as one event-by-event state
// machine over the whole trace, with its own interruption build. It is
// the reference semantics every engine entry point is checked against
// (export_test.go hands it to the noise_test equivalence suites). It
// shares with the engine only the leaf rules (keyOfSpan, CategoryOf,
// cpuArg, appSet), the report set-up (newReport, Budget) and the
// accumulator (Report.record), which TestReportDigests in
// internal/workload pins on their own.

import (
	"sort"

	"osnoise/internal/trace"
)

// oracleCPU is the oracle's per-CPU walking state: the replay's
// scheduler state plus the open-span stack the engine keeps in its
// per-CPU walkers.
type oracleCPU struct {
	cpuState
	stack []openSpan
}

// analyzeOracle runs the full noise analysis over a collected trace,
// sequentially. An event/byte budget in opts truncates the analysis to
// the trace's prefix, as in every entry point.
func analyzeOracle(tr *trace.Trace, opts Options) *Report {
	events, truncated := opts.Budget.truncate(tr.Events)
	first, last := eventSpan(events)
	// The process table is already in memory: reading it cannot fail.
	r, apps, _ := newReport(tr.CPUs, first, last, &opts, func() ([]trace.ProcInfo, error) { return tr.Procs, nil })
	r.Incomplete = truncated
	r.EventsConsumed = uint64(len(events))

	cpus := make([]oracleCPU, tr.CPUs)
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

// noiseByCPU groups the report's noise spans per CPU, indexed by CPU id
// (span CPUs are validated against the CPU count at ingestion, so the
// index is always in range), and returns the occupied CPU ids in
// ascending order.
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
// a CPU — so the engine (buildInterruptionsParallel) groups CPUs
// concurrently and concatenates them in CPU order.
//
// The sort must be STABLE: two spans sharing both start and end (same-
// timestamp boundaries) keep their record order, the contract the
// engine reproduces with an explicit record-index tie-break
// (keyCmpTotal). An unstable sort here would order tied components
// arbitrarily and the oracle would stop being a function of the trace.
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
