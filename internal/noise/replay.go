// Control-stream replay: the sequential phase of the parallel pipeline.
//
// The replay is order-sensitive — preemption windows follow tasks across
// CPUs, and the floating-point accumulators must be fed in global order
// — so it is one pass over the control stream that records every span
// straight into the Report, in the trace's global order: the order the
// sequential test oracle (oracle_test.go) records in.
// Splitting it by time into concurrently replayed epochs was measured
// slower end to end: the merge still had to feed every span through
// Report.record in order (docs/ARCHITECTURE.md §3).

package noise

import (
	"context"

	"osnoise/internal/trace"
)

// replay applies the scheduler/owner/preemption-window state machine
// over the control stream's sched records and exit positions,
// interleaved in global stream order, and records every finished span
// into r: reconstructed spans as their exits come up, preemption spans
// at the switch that closes their window. It returns the preemption
// windows still open at the end of the trace (dropped, like unclosed
// spans) and, per CPU, the interruption index of the noise spans (see
// ispanKey), written in record order.
//
// The replay checks ctx every cancelStride exits and every few thousand
// scheduler records; on cancellation it returns the state it has (the
// caller detects ctx.Err() and marks the report).
func (r *Report) replay(ctx context.Context, ctl ctlStream, walkers []cpuWalker, opts Options, apps appSet) (map[int64]*window, [][]ispanKey) {
	ncpu := len(walkers)
	cpus := make([]cpuState, ncpu)
	windows := make(map[int64]*window)
	lastRunner := make([]int64, ncpu)
	nextSpan := make([]int, ncpu) // per CPU, next walker span to pair with an exit
	exitSeen := make([]int, ncpu) // per CPU, exits consumed so far
	noiseIdx := make([][]ispanKey, ncpu)
	for c := range noiseIdx {
		if n := len(walkers[c].spans); n > 0 {
			noiseIdx[c] = make([]ispanKey, 0, n)
		}
	}

	// emit records one span and indexes it when it is noise.
	emit := func(s Span) {
		r.record(s, opts.KeepDurations)
		if s.Noise {
			noiseIdx[s.CPU] = append(noiseIdx[s.CPU], ispanKey{
				start: s.Start, end: s.Start + s.Wall, own: s.Own,
				key: s.Key, idx: int32(len(r.Spans) - 1),
			})
		}
	}
	doExit := func(cpu int32) {
		ord := exitSeen[cpu]
		exitSeen[cpu]++
		spans := walkers[cpu].spans
		j := nextSpan[cpu]
		if j >= len(spans) || int(spans[j].closeOrd) != ord {
			return // this exit matched no span (walker dropped it)
		}
		nextSpan[cpu]++
		rec := spans[j]
		cs := &cpus[cpu]
		key := Key(rec.key)
		isNoise := CategoryOf(key).IsNoise()
		if opts.RunnableFilter && cs.owner == 0 {
			isNoise = false
		}
		emit(Span{
			Key: key, CPU: cpu, Start: rec.start,
			Wall: rec.wall, Own: rec.own, PID: cs.owner, Noise: isNoise,
		})
		// Top-level kernel time inside a preemption window is charged to
		// its own key; subtract it from the window so the wait is not
		// double counted.
		if rec.topLevel && cs.owner != 0 && cs.current != cs.owner {
			if w := windows[cs.owner]; w != nil && w.cpu == cpu {
				w.kernelWall += rec.wall
			}
		}
	}
	// exitsTo replays the exits before stream position hi; false means
	// ctx was cancelled.
	pos := 0
	exitsTo := func(hi int) bool {
		for ; pos < hi; pos++ {
			if pos&(cancelStride-1) == 0 && ctx.Err() != nil {
				return false
			}
			doExit(ctl.exitCPU[pos])
		}
		return true
	}

	for i := range ctl.sched {
		sr := &ctl.sched[i]
		if i&4095 == 0 && ctx.Err() != nil {
			return windows, noiseIdx
		}
		if !exitsTo(int(sr.exitsBefore)) {
			return windows, noiseIdx
		}
		switch sr.kind {
		case ctlSwitch:
			cs := &cpus[sr.cpu]
			prev, next, prevState := sr.a1, sr.a2, sr.a3
			if apps.has(prev) {
				if prevState == trace.TaskStateRunning {
					// Preempted while runnable: open a window.
					windows[prev] = &window{start: sr.ts, cpu: sr.cpu}
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
					preempt := (sr.ts - w.start) - w.kernelWall
					if preempt > 0 {
						culprit := lastRunner[w.cpu]
						if culprit == next {
							culprit = 0
						}
						emit(Span{
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
				lastRunner[sr.cpu] = next
			}

		case ctlMigrate:
			pid, from, to := sr.a1, sr.a2, sr.a3
			if cpuArg(from, ncpu) && cpus[from].owner == pid {
				cpus[from].owner = 0
			}
			if cpuArg(to, ncpu) {
				if w := windows[pid]; w != nil {
					w.cpu = int32(to)
				}
				if cpus[to].owner == 0 && apps.has(pid) {
					cpus[to].owner = pid
				}
			}

		case ctlProcExit:
			delete(windows, sr.a1)
		}
	}
	exitsTo(len(ctl.exitCPU))
	return windows, noiseIdx
}
