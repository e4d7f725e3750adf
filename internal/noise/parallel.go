// Parallel analysis pipeline.
//
// The tracer captures into per-CPU rings precisely so that recording
// scales with core count; this file gives the offline analyzer the same
// shape. Kernel-activity nesting is per-CPU by construction (an
// interrupt nests inside whatever its own CPU was doing), so the
// expensive part of the analysis — reconstructing spans from entry/exit
// tracepoints with exact nested-time attribution — shards across CPUs
// with no approximation. What does NOT shard is the scheduler state:
// preemption windows follow a task when it migrates between CPUs, so
// owner/window tracking is replayed over the scheduler events alone, in
// one sequential pass (replay.go).
//
// The pipeline runs in three phases:
//
//  1. partition (parallel): a counting sort of the event stream into
//     per-CPU entry/exit sub-streams — compact 16-byte records carrying
//     exactly what span reconstruction needs — plus one global,
//     order-preserving control stream;
//  2. walk (parallel): one worker per CPU stream reconstructs spans —
//     stack nesting, wall/own attribution — independently. On the raw
//     path the walkers start while the partition is still scanning:
//     chunks are handed off through rawHandoff as each one completes,
//     so the two phases overlap instead of running back to back;
//  3. replay: the control stream is walked, applying the
//     scheduler/owner/preemption-window state machine and feeding every
//     finished span through Report.record in the trace's global order.
//
// Because phase 3 performs the same accumulator calls in the same order
// as the sequential test oracle (oracle_test.go), the resulting Report
// is bit-identical to the oracle's at every shard count — including the
// order-sensitive floating-point summary fields. Analyze is this
// pipeline at one shard. The equivalence tests in parallel_test.go and
// epoch_test.go lock this invariant.
//
// The walkers also pre-count spans per key, so the replay appends into
// exactly-sized slices — a single event-by-event pass cannot know those
// counts without a second pass, which is how the pipeline beats the
// oracle even at one shard. The raw path additionally
// recycles its large scratch buffers (per-chunk sub-streams, decode
// arenas, walker span lists) through sync.Pools, so a steady-state
// consumer — the noised daemon, the pipeline benchmark's repetitions —
// stops paying allocation and page-zeroing costs after the first run.
//
// Every entry point takes a context.Context and checks it at batch and
// shard boundaries (see resilience.go): each phase joins its workers
// before returning, so cancellation never leaks a goroutine, and a
// cancelled run returns a Report marked Incomplete together with an
// error wrapping ErrCancelled.
package noise

import (
	"context"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"osnoise/internal/trace"
)

// cancelStride is how many event records a worker processes between
// cooperative cancellation checks. Large enough that the ctx.Err() load
// is invisible on the hot path, small enough that cancellation lands
// within microseconds.
const cancelStride = 8192

// cev is one routed entry or exit record in a per-CPU sub-stream: the
// 16 bytes of a 40-byte trace.Event that span reconstruction actually
// consumes. For an entry, id is the expected exit tracepoint and key
// the span's pre-classified activity Key (both computed during the
// parallel partition, off the walkers' critical path); for an exit, id
// is the exit tracepoint itself and key is cevExit.
type cev struct {
	ts  int64
	id  uint16
	key uint16
}

// cevExit marks a cev as an exit record. Activity keys are small
// (< NumKeys), so the all-ones pattern can never collide with one.
const cevExit = ^uint16(0)

// Event classes for partition routing, precomputed per tracepoint ID so
// the per-record work is one table load and one switch instead of a
// chain of multi-case comparisons.
const (
	clIgnore uint8 = iota
	clEntry
	clExit
	clSwitch
	clMigrate
	clProcExit
)

// evClass maps every tracepoint ID to its partition routing class.
var evClass = buildEvClass()

// buildEvClass derives the routing table from the ID predicates the
// test oracle switches on, so the two can never disagree.
func buildEvClass() (t [trace.NumIDs]uint8) {
	for id := trace.ID(0); int(id) < trace.NumIDs; id++ {
		switch {
		case id.IsEntry():
			t[id] = clEntry
		case id.IsExit():
			t[id] = clExit
		case id == trace.EvSchedSwitch:
			t[id] = clSwitch
		case id == trace.EvSchedMigrate:
			t[id] = clMigrate
		case id == trace.EvProcessExit:
			t[id] = clProcExit
		}
	}
	return t
}

// classOf routes one tracepoint ID, tolerating IDs beyond the table (a
// corrupt or newer-format record classifies as ignored, exactly as the
// oracle's predicate chain would).
func classOf(id trace.ID) uint8 {
	if int(id) < len(evClass) {
		return evClass[id]
	}
	return clIgnore
}

// Scratch-buffer pools for the raw pipeline. A steady-state consumer
// (the daemon's per-window analyses, benchmark repetitions) reuses the
// previous run's buffers instead of re-allocating — and re-zeroing —
// tens of megabytes per run; see getSlice/putSlice.
var (
	cevPool   sync.Pool // *[]cev: per-chunk per-CPU sub-streams
	batchPool sync.Pool // *[]cev: AnalyzeStream's per-CPU hand-off batches
	exitPool  sync.Pool // *[]int32: exit-CPU lists (per chunk, or a stream's)
	spanPool  sync.Pool // *[]spanRec: per-CPU walker span lists
	arenaPool sync.Pool // *[]trace.Event: decode arenas
	schedPool sync.Pool // *[]schedRec: control-stream scheduler records
)

// getSlice returns an empty slice with at least the requested capacity,
// reusing a pooled buffer when one is big enough.
func getSlice[T any](p *sync.Pool, capacity int) []T {
	if v := p.Get(); v != nil {
		if s := *(v.(*[]T)); cap(s) >= capacity {
			return s[:0]
		}
	}
	return make([]T, 0, capacity)
}

// putSlice recycles a buffer for a later getSlice. The caller must be
// the last referent — nothing reachable from a returned Report may
// alias it.
func putSlice[T any](p *sync.Pool, s []T) {
	if cap(s) == 0 {
		return
	}
	// A fresh variable, so only a real Put moves a slice header to the
	// heap (a stream's walkers outnumber its non-empty span lists).
	b := s[:0]
	p.Put(&b)
}

// spanRec is one reconstructed kernel-activity span before scheduler
// attribution (owner pid and noise classification are replay-phase
// concerns). 32 bytes: the replay streams millions of these.
type spanRec struct {
	start    int64
	wall     int64
	own      int64
	closeOrd int32 // ordinal of the closing exit within this CPU's exits
	key      uint16
	topLevel bool // span closed with an empty stack below it
}

// cpuWalker reconstructs the kernel-activity spans of one CPU's
// entry/exit sub-stream. It must mirror the test oracle's stack
// handling exactly.
type cpuWalker struct {
	attributeNesting bool
	stack            []openSpan
	spans            []spanRec
	perKey           [NumKeys]int // finished spans per key, for preallocation
	exits            int          // exit tracepoints seen, including unmatched ones
	dropped          int
}

// step feeds one routed sub-stream record through the walker.
//
//noisevet:hotpath
func (w *cpuWalker) step(e cev) {
	if e.key != cevExit {
		w.stack = append(w.stack, openSpan{
			key:    Key(e.key),
			start:  e.ts,
			exitID: trace.ID(e.id),
		})
		return
	}
	ord := w.exits
	w.exits++
	if len(w.stack) == 0 {
		w.dropped++ // span began before tracing started
		return
	}
	top := w.stack[len(w.stack)-1]
	if top.exitID != trace.ID(e.id) {
		// Corrupt nesting; drop the whole stack for this CPU.
		w.dropped += len(w.stack)
		w.stack = w.stack[:0]
		return
	}
	w.stack = w.stack[:len(w.stack)-1]
	wall := e.ts - top.start
	own := wall
	if w.attributeNesting {
		own = wall - top.childWall
		if own < 0 {
			own = 0
		}
	}
	if len(w.stack) > 0 {
		w.stack[len(w.stack)-1].childWall += wall
	}
	w.perKey[top.key]++
	w.spans = append(w.spans, spanRec{
		closeOrd: int32(ord), key: uint16(top.key), start: top.start,
		wall: wall, own: own, topLevel: len(w.stack) == 0,
	})
}

// entryCev builds the routed record of an entry event, pre-resolving
// the expected exit ID and the activity key so the walker never touches
// them again.
func entryCev(ts int64, id trace.ID, vec int64) cev {
	return cev{ts: ts, id: uint16(id.ExitFor()), key: uint16(keyOfSpan(id, vec))}
}

// ctlKind tags one scheduler record in the control stream.
type ctlKind uint8

// Scheduler record kinds: the three event types that mutate cross-CPU
// analysis state.
const (
	ctlSwitch ctlKind = iota
	ctlMigrate
	ctlProcExit
)

// schedRec is one scheduler event in the control stream, positioned in
// the global order by the number of span exits that precede it.
type schedRec struct {
	ts          int64
	a1, a2, a3  int64
	exitsBefore int32 // exit events preceding this record globally
	cpu         int32
	kind        ctlKind
}

// ctlStream is the global-order projection of the event stream that the
// replay consumes: exits are compressed to just their CPU (4 bytes each
// — they carry no other replay-relevant state, the walkers hold the
// span data), while the rare scheduler events keep their arguments and
// record their interleaving position.
type ctlStream struct {
	exitCPU  []int32
	sched    []schedRec
	switches int // sched-switch count: caps the preemption spans replay can emit
}

// inWindow reports whether a timestamp falls inside the analysis window
// (the filter at the top of the test oracle's event loop).
func (o *Options) inWindow(ts int64) bool {
	if o.FromNS == 0 && o.ToNS == 0 {
		return true
	}
	return ts >= o.FromNS && !(o.ToNS > 0 && ts > o.ToNS)
}

// partition routes the event stream into per-CPU entry/exit sub-streams
// and the control stream, via a chunk-parallel counting sort that
// preserves order everywhere. The sub-streams are compacted cev records
// so the walkers scan 16 bytes per event instead of striding through
// the full interleaved 40-byte stream. dropped counts events outside
// the CPU range (the oracle's Dropped accounting for them).
//
// Both passes check ctx every cancelStride records; on cancellation the
// chunk workers stop where they are, the pass still joins every worker,
// and the context's error is returned. prog.events counts records
// scanned by the first (counting) pass, at chunk-stride granularity.
func partition(ctx context.Context, events []trace.Event, opts Options, ncpu, workers int, prog *progress) (perCPU [][]cev, ctl ctlStream, dropped int, err error) {
	nchunk := workers
	if nchunk < 1 {
		nchunk = 1
	}
	if nchunk > len(events)/4096+1 {
		nchunk = len(events)/4096 + 1
	}
	bounds := make([]int, nchunk+1)
	for i := 0; i <= nchunk; i++ {
		bounds[i] = i * len(events) / nchunk
	}

	counts := make([][]int, nchunk) // per chunk, per CPU entry/exit count
	exitCounts := make([]int, nchunk)
	schedCounts := make([]int, nchunk)
	switchCounts := make([]int, nchunk)
	drops := make([]int, nchunk)
	var wg sync.WaitGroup
	for ci := 0; ci < nchunk; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cnt := make([]int, ncpu)
			chunk := events[bounds[ci]:bounds[ci+1]]
			for base := 0; base < len(chunk); base += cancelStride {
				if ctx.Err() != nil {
					return
				}
				end := base + cancelStride
				if end > len(chunk) {
					end = len(chunk)
				}
				for _, ev := range chunk[base:end] {
					if !opts.inWindow(ev.TS) {
						continue
					}
					if ev.CPU < 0 || int(ev.CPU) >= ncpu {
						drops[ci]++
						continue
					}
					switch classOf(ev.ID) {
					case clEntry:
						cnt[ev.CPU]++
					case clExit:
						cnt[ev.CPU]++
						exitCounts[ci]++
					case clSwitch:
						schedCounts[ci]++
						switchCounts[ci]++
					case clMigrate, clProcExit:
						schedCounts[ci]++
					}
				}
				prog.events.Add(uint64(end - base))
			}
			counts[ci] = cnt
		}(ci)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, ctl, 0, err
	}

	// Exclusive prefix sums: where each chunk writes, per CPU and in the
	// control stream. Chunk order equals stream order, so concatenating
	// chunk ranges preserves per-CPU and global ordering.
	offs := make([][]int, nchunk)
	exitOffs := make([]int, nchunk)
	schedOffs := make([]int, nchunk)
	totals := make([]int, ncpu)
	exitTotal, schedTotal := 0, 0
	for ci := 0; ci < nchunk; ci++ {
		offs[ci] = make([]int, ncpu)
		copy(offs[ci], totals)
		exitOffs[ci] = exitTotal
		schedOffs[ci] = schedTotal
		for c := 0; c < ncpu; c++ {
			totals[c] += counts[ci][c]
		}
		exitTotal += exitCounts[ci]
		schedTotal += schedCounts[ci]
		dropped += drops[ci]
		ctl.switches += switchCounts[ci]
	}
	perCPU = make([][]cev, ncpu)
	for c := 0; c < ncpu; c++ {
		perCPU[c] = make([]cev, totals[c])
	}
	ctl.exitCPU = make([]int32, exitTotal)
	ctl.sched = make([]schedRec, schedTotal)

	for ci := 0; ci < nchunk; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			pos := offs[ci]
			exitPos := exitOffs[ci]
			schedPos := schedOffs[ci]
			chunk := events[bounds[ci]:bounds[ci+1]]
			for base := 0; base < len(chunk); base += cancelStride {
				if ctx.Err() != nil {
					return
				}
				end := base + cancelStride
				if end > len(chunk) {
					end = len(chunk)
				}
				for _, ev := range chunk[base:end] {
					if !opts.inWindow(ev.TS) {
						continue
					}
					if ev.CPU < 0 || int(ev.CPU) >= ncpu {
						continue
					}
					switch classOf(ev.ID) {
					case clEntry:
						perCPU[ev.CPU][pos[ev.CPU]] = entryCev(ev.TS, ev.ID, ev.Arg1)
						pos[ev.CPU]++
					case clExit:
						perCPU[ev.CPU][pos[ev.CPU]] = cev{ts: ev.TS, id: uint16(ev.ID), key: cevExit}
						pos[ev.CPU]++
						ctl.exitCPU[exitPos] = ev.CPU
						exitPos++
					case clSwitch, clMigrate, clProcExit:
						kind := ctlSwitch
						switch classOf(ev.ID) {
						case clMigrate:
							kind = ctlMigrate
						case clProcExit:
							kind = ctlProcExit
						}
						ctl.sched[schedPos] = schedRec{
							kind: kind, cpu: ev.CPU, ts: ev.TS,
							a1: ev.Arg1, a2: ev.Arg2, a3: ev.Arg3,
							exitsBefore: int32(exitPos),
						}
						schedPos++
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, ctl, 0, err
	}
	return perCPU, ctl, dropped, nil
}

// chunkOut is routed output: per-CPU sub-stream segments plus the
// control stream. It is one raw scan chunk's (its control stream
// awaiting stitching), or a whole stream's (its segments the pending
// hand-off batches).
type chunkOut struct {
	perCPU   [][]cev
	exitCPU  []int32
	sched    []schedRec
	switches int
	dropped  int
}

// route classifies decoded events into out: entries and exits onto
// their CPU's sub-stream, exit CPUs and scheduler records onto the
// control stream. Events outside the analysis window are skipped, and
// those naming a CPU outside [0, len(out.perCPU)) counted as dropped.
// spill, when non-nil, is called before appending to a full sub-stream,
// its first record included: the stream path hands the batch to a
// walker there and installs a fresh one. Otherwise append grows it.
//
//noisevet:hotpath
func (out *chunkOut) route(evs []trace.Event, opts *Options, spill func(cpu int32)) {
	checkWin := opts.FromNS != 0 || opts.ToNS != 0
	ncpu := uint32(len(out.perCPU))
	for i := range evs {
		ev := &evs[i]
		if checkWin && !opts.inWindow(ev.TS) {
			continue
		}
		cpu := ev.CPU
		if uint32(cpu) >= ncpu {
			out.dropped++
			continue
		}
		var kind ctlKind
		switch cl := classOf(ev.ID); cl {
		case clEntry, clExit:
			if spill != nil && len(out.perCPU[cpu]) == cap(out.perCPU[cpu]) {
				spill(cpu)
			}
			if cl == clEntry {
				out.perCPU[cpu] = append(out.perCPU[cpu], entryCev(ev.TS, ev.ID, ev.Arg1))
			} else {
				out.perCPU[cpu] = append(out.perCPU[cpu], cev{ts: ev.TS, id: uint16(ev.ID), key: cevExit})
				out.exitCPU = append(out.exitCPU, cpu)
			}
			continue
		case clSwitch:
			out.switches++
			kind = ctlSwitch
		case clMigrate:
			kind = ctlMigrate
		case clProcExit:
			kind = ctlProcExit
		default:
			continue
		}
		out.sched = append(out.sched, schedRec{
			kind: kind, cpu: cpu, ts: ev.TS,
			a1: ev.Arg1, a2: ev.Arg2, a3: ev.Arg3,
			exitsBefore: int32(len(out.exitCPU)),
		})
	}
}

// rawHandoff is the bounded hand-off between the raw partition and the
// walkers: one slot and one readiness signal per scan chunk (the chunk
// count bounds it). Scan workers fill outs[ci] and close done[ci];
// walkers block on done[ci] before reading outs[ci], consuming chunks
// strictly in order so each CPU sees its global event order. Every
// done channel is closed exactly once even when a chunk is skipped on
// cancellation, so a consumer can never hang.
type rawHandoff struct {
	outs []chunkOut
	done []chan struct{}
}

// newRawHandoff sizes a hand-off for nchunk scan chunks.
func newRawHandoff(nchunk int) *rawHandoff {
	h := &rawHandoff{
		outs: make([]chunkOut, nchunk),
		done: make([]chan struct{}, nchunk),
	}
	for i := range h.done {
		h.done[i] = make(chan struct{})
	}
	return h
}

// rawChunkCount is the scan-chunk count for a raw partition: one chunk
// per worker, capped so tiny traces are not shredded into sub-4096
// record fragments.
func rawChunkCount(count uint64, workers int) int {
	return min(max(workers, 1), int(count/4096)+1)
}

// rawBatch is how many events one DecodeBatch call materialises into a
// scan worker's arena: big enough to amortise the call and hoist the
// per-event branches, small enough to stay L1-resident (20 KB).
const rawBatch = 512

// scanChunk routes one chunk's raw records into out: DecodeBatch
// decodes rawBatch events at a time into the worker's reused arena, and
// route classifies each via the evClass table.
//
//noisevet:hotpath
func scanChunk(ctx context.Context, rt *trace.RawTrace, opts *Options, ncpu int, lo, hi uint64, arena []trace.Event, out *chunkOut, prog *progress) error {
	nrec := int(hi - lo)
	// Size the chunk-local buffers as if every record were an entry/exit
	// spread uniformly across CPUs: a slight overshoot that makes append
	// growth (and its copies) the rare case instead of the common one.
	capPer := nrec/ncpu + 64
	out.perCPU = make([][]cev, ncpu)
	for c := range out.perCPU {
		out.perCPU[c] = getSlice[cev](&cevPool, capPer)
	}
	out.exitCPU = getSlice[int32](&exitPool, nrec/2+64)
	// Scheduler records run ~10% of realistic traces; size for that so
	// the control stream almost never regrows mid-scan.
	out.sched = getSlice[schedRec](&schedPool, nrec/8+64)
	return rt.Scan(lo, hi, func(_ uint64, b []byte) error {
		for len(b) > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			n := trace.DecodeBatch(b, arena)
			if n == 0 {
				return nil
			}
			b = b[n*trace.EventSize:]
			prog.events.Add(uint64(n))
			out.route(arena[:n], opts, nil)
		}
		return nil
	})
}

// partitionRaw is partition operating directly on the undecoded event
// section of a fixed-format trace: scan workers claim chunks, bulk-
// decode them with trace.DecodeBatch into reused arenas, and route the
// records into chunk-local cev buffers — handing each finished chunk to
// the concurrently running walkers through hand (see rawHandoff), so
// span reconstruction overlaps the scan instead of waiting for it.
// This is what lets AnalyzeRaw skip the whole []Event allocation a
// Read-then-Analyze pipeline pays for.
//
// Only the small control stream is stitched after the scan, offsetting
// each chunk's exitsBefore by the exits that came before it. count is
// the number of records to partition — the full event count, or less
// when an event/byte budget truncates ingestion to a prefix. dropped
// (out-of-range CPU records) is summed over chunks exactly as the
// oracle counts them; the equivalence suites assert the resulting
// Report.Dropped against the oracle's.
//
// The scan workers check ctx once per decode batch and count progress
// into prog.events; on cancellation every worker is still joined, every
// hand-off slot is still signalled, and the context's error is
// returned.
//
//noisevet:hotpath
func partitionRaw(ctx context.Context, rt *trace.RawTrace, opts Options, workers int, count uint64, prog *progress, hand *rawHandoff) (ctl ctlStream, dropped int, err error) {
	ncpu := rt.CPUs()
	nchunk := len(hand.outs)
	bounds := make([]uint64, nchunk+1)
	for i := 0; i <= nchunk; i++ {
		bounds[i] = uint64(i) * count / uint64(nchunk)
	}
	nworker := max(min(workers, nchunk), 1)

	errs := make([]error, nchunk)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nworker; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := getSlice[trace.Event](&arenaPool, rawBatch)[:rawBatch]
			defer putSlice(&arenaPool, arena)
			for {
				ci := int(next.Add(1)) - 1
				if ci >= nchunk {
					return
				}
				if ctx.Err() == nil {
					errs[ci] = scanChunk(ctx, rt, &opts, ncpu,
						bounds[ci], bounds[ci+1], arena, &hand.outs[ci], prog)
				}
				// Signal even skipped/failed chunks: walkers waiting on
				// this slot must unblock (they observe ctx themselves).
				close(hand.done[ci])
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return ctl, 0, err
	}
	for _, e := range errs {
		if e != nil {
			return ctl, 0, e
		}
	}

	outs := hand.outs
	exitTotal, schedTotal := 0, 0
	for ci := range outs {
		exitTotal += len(outs[ci].exitCPU)
		schedTotal += len(outs[ci].sched)
		ctl.switches += outs[ci].switches
		dropped += outs[ci].dropped
	}
	ctl.exitCPU = make([]int32, 0, exitTotal)
	ctl.sched = make([]schedRec, 0, schedTotal)
	for ci := range outs {
		exitsBefore := int32(len(ctl.exitCPU))
		ctl.exitCPU = append(ctl.exitCPU, outs[ci].exitCPU...)
		for _, sr := range outs[ci].sched {
			sr.exitsBefore += exitsBefore
			ctl.sched = append(ctl.sched, sr)
		}
	}
	// The chunk exit and sched lists are fully stitched now; recycle
	// them. The cev buffers are still being walked — AnalyzeRaw recycles
	// those once the run completes.
	for ci := range outs {
		putSlice(&exitPool, outs[ci].exitCPU)
		outs[ci].exitCPU = nil
		putSlice(&schedPool, outs[ci].sched)
		outs[ci].sched = nil
	}
	return ctl, dropped, nil
}

// recycleRaw returns a finished run's large scratch buffers — the
// chunk-local cev sub-streams and the walkers' span lists — to their
// pools. Only called after the replay and interruption build are done:
// the Report copies everything it keeps, so nothing reachable from it
// aliases these buffers.
func recycleRaw(hand *rawHandoff, walkers []cpuWalker) {
	for ci := range hand.outs {
		for c := range hand.outs[ci].perCPU {
			putSlice(&cevPool, hand.outs[ci].perCPU[c])
		}
		hand.outs[ci].perCPU = nil
	}
	for i := range walkers {
		putSlice(&spanPool, walkers[i].spans)
		walkers[i].spans = nil
	}
}

// runWalkersSegs reconstructs spans for every CPU, consuming the raw
// partition's chunks through hand as they become ready: each CPU's
// walker steps through its segment of every chunk in chunk order —
// exactly the CPU's global event order — blocking on a chunk's hand-off
// signal only when the scan has not produced it yet. Workers check ctx
// at every CPU claim, every chunk boundary, and every cancelStride
// steps within a chunk; finished walkers are counted into prog.cpus.
//
//noisevet:hotpath
func runWalkersSegs(ctx context.Context, hand *rawHandoff, ncpu int, attributeNesting bool, workers int, prog *progress) ([]cpuWalker, error) {
	walkers := make([]cpuWalker, ncpu)
	workers = max(min(workers, ncpu), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				c := int(next.Add(1)) - 1
				if c >= ncpu {
					return
				}
				wk := &walkers[c]
				wk.attributeNesting = attributeNesting
				stepped := 0
				for ci := range hand.outs {
					<-hand.done[ci]
					if ctx.Err() != nil {
						return
					}
					out := &hand.outs[ci]
					if len(out.perCPU) <= c {
						continue // chunk skipped on cancellation
					}
					seg := out.perCPU[c]
					if wk.spans == nil {
						// Size from the first chunk: chunks are uniform
						// record ranges, and roughly half a sub-stream is
						// exits, each closing at most one span.
						wk.spans = getSlice[spanRec](&spanPool, (len(seg)*len(hand.outs))/2+16)
					}
					for i := range seg {
						wk.step(seg[i])
						if stepped++; stepped >= cancelStride {
							stepped = 0
							if ctx.Err() != nil {
								return
							}
						}
					}
				}
				prog.cpus.Add(1)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return walkers, nil
}

// runWalkers reconstructs spans for every CPU sub-stream using a pool of
// at most `workers` goroutines. Workers check ctx at every CPU claim and
// every cancelStride steps within a CPU; finished walkers are counted
// into prog.cpus.
//
//noisevet:hotpath
func runWalkers(ctx context.Context, perCPU [][]cev, attributeNesting bool, workers int, prog *progress) ([]cpuWalker, error) {
	walkers := make([]cpuWalker, len(perCPU))
	if workers > len(perCPU) {
		workers = len(perCPU)
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				c := int(next.Add(1)) - 1
				if c >= len(perCPU) {
					return
				}
				wk := &walkers[c]
				wk.attributeNesting = attributeNesting
				// Roughly half the sub-stream is exits, each closing at
				// most one span.
				wk.spans = make([]spanRec, 0, len(perCPU[c])/2+1)
				stream := perCPU[c]
				for base := 0; base < len(stream); base += cancelStride {
					if ctx.Err() != nil {
						return
					}
					end := base + cancelStride
					if end > len(stream) {
						end = len(stream)
					}
					for _, ev := range stream[base:end] {
						wk.step(ev)
					}
				}
				prog.cpus.Add(1)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return walkers, nil
}

// prealloc right-sizes the report's append targets before the replay:
// the walkers know exactly how many spans of each key they produced, and
// the partition bounds the preemption spans by the switch count, so the
// replay's record calls never re-grow a slice. (A single event-by-event
// pass cannot know these counts without a second pass — this is where
// the pipeline recovers the partition cost.) Slices stay nil when
// nothing will be appended so the report compares equal to the
// oracle's.
func (r *Report) prealloc(walkers []cpuWalker, switches int, keep bool) {
	total := 0
	var perKey [NumKeys]int
	for i := range walkers {
		total += len(walkers[i].spans)
		for k, n := range walkers[i].perKey {
			perKey[k] += n
		}
	}
	if total > 0 {
		r.Spans = make([]Span, 0, total+switches)
	}
	if keep {
		for k, n := range perKey {
			if n > 0 && Key(k) != KeyPreemption {
				r.PerKey[k].Durations = make([]int64, 0, n)
			}
		}
	}
}

// ispanKey is one noise span's record in the per-CPU interruption
// index: the sort-comparator fields plus everything the gap merge
// consumes (own, key). The replay writes these as it records noise
// spans, so the whole interruption build — sort, count, fill — runs
// over these compact contiguous records without ever loading the
// multi-megabyte Report.Spans array again (a cache miss per span,
// measured as the dominant cost of the old index-only scheme).
type ispanKey struct {
	start, end int64
	own        int64 // the span's own-time contribution (Span.Own)
	key        Key   // the span's classification (Span.Key)
	idx        int32 // record index in Report.Spans: the stable tie-break
}

// keyCmp is the interruption sort order on keys: start ascending, then
// end descending — exactly the comparator of the test oracle's stable
// sort (interruptionsForCPU in oracle_test.go). Ties (two
// spans with identical start and end, common at same-timestamp
// boundaries) compare equal here; use keyCmpTotal where a deterministic
// order is required.
func keyCmp(a, b ispanKey) int {
	if a.start != b.start {
		if a.start < b.start {
			return -1
		}
		return 1
	}
	if a.end == b.end {
		return 0
	}
	if a.end > b.end {
		return -1
	}
	return 1
}

// keyCmpTotal extends keyCmp into a total order by breaking ties on the
// span's record index, ascending. Keys are built in record order, so
// sorting by keyCmpTotal from ANY permutation yields exactly the order
// sort.SliceStable with keyCmp would give the original sequence — the
// tie-handling contract of the oracle's stable sort.
func keyCmpTotal(a, b ispanKey) int {
	if c := keyCmp(a, b); c != 0 {
		return c
	}
	if a.idx != b.idx {
		if a.idx < b.idx {
			return -1
		}
		return 1
	}
	return 0
}

// sortKeysNearSorted sorts keys in near-linear time, exploiting that
// the replay emits noise spans in per-CPU exit order: ascending except
// where a parent span closes after its children, so out-of-place
// elements are a handful per CPU. Those are split off, sorted, and
// rear-merged into the ascending remainder.
//
// When every key is distinct the sorted order is unique, so this equals
// what any correct sort would produce. Duplicate keys make the order of
// the tied elements algorithm-dependent; the function detects them and
// reports false, and the caller must fall back to the total-order sort
// (keyCmpTotal), whose tie-break reproduces the stable order.
func sortKeysNearSorted(keys []ispanKey) bool {
	// Count the outliers first (keys below the last key kept in order),
	// so they get one exact allocation and a sorted input none.
	nout, last := 0, 0
	for i := 1; i < len(keys); i++ {
		if keyCmp(keys[i], keys[last]) < 0 {
			nout++
		} else {
			last = i
		}
	}
	if nout > 0 {
		outliers := make([]ispanKey, 0, nout)
		w := 0
		for _, k := range keys {
			if w > 0 && keyCmp(k, keys[w-1]) < 0 {
				outliers = append(outliers, k)
				continue
			}
			keys[w] = k
			w++
		}
		slices.SortFunc(outliers, keyCmpTotal)
		// Rear merge: fill keys from the back; t never catches up to i.
		i, t := w-1, len(keys)-1
		for j := len(outliers) - 1; j >= 0; t-- {
			if i >= 0 && keyCmp(keys[i], outliers[j]) > 0 {
				keys[t] = keys[i]
				i--
			} else {
				keys[t] = outliers[j]
				j--
			}
		}
	}
	for i := 1; i < len(keys); i++ {
		if keyCmp(keys[i-1], keys[i]) == 0 {
			return false
		}
	}
	return true
}

// sortInterruptionKeys sorts one CPU's interruption keys in place:
// same comparator and provably the same order as the oracle's stable
// sort. The near-sorted fast path is exact for distinct keys
// (the sorted order is unique); when it detects ties it reports failure
// and the total-order sort lands them by ascending record index — which
// IS the stable order, because the replay wrote the keys in record
// order. Sorting these compact records applies the exact permutation
// sorting the spans themselves would.
func sortInterruptionKeys(keys []ispanKey) {
	if !sortKeysNearSorted(keys) {
		// keyCmpTotal is a total order: re-sorting the permuted keys
		// still yields the unique sorted sequence, no rebuild needed.
		slices.SortFunc(keys, keyCmpTotal)
	}
}

// countInterruptions dry-runs the gap merge over sorted keys and
// returns how many interruptions it will produce.
func countInterruptions(keys []ispanKey, gap int64) int {
	n, end := 0, int64(0)
	for _, k := range keys {
		if n == 0 || k.start-end > gap {
			n++
			end = k.end
		} else if k.end > end {
			end = k.end
		}
	}
	return n
}

// fillInterruptions runs the gap merge over one CPU's sorted keys,
// writing into caller-provided storage: out must have room for exactly
// countInterruptions results and comps for len(keys) components. Every
// Component slice is carved from comps with its capacity pinned, so the
// result compares equal to the sequential builder's append-grown slices
// (reflect.DeepEqual ignores capacity).
func fillInterruptions(cpu int32, keys []ispanKey, gap int64, out []Interruption, comps []Component) {
	ci, curStart, n := 0, 0, 0
	var cur Interruption
	for _, k := range keys {
		if ci > 0 && k.start-cur.End <= gap {
			comps[ci] = Component{Key: k.key, Start: k.start, Own: k.own}
			ci++
			cur.Total += k.own
			if k.end > cur.End {
				cur.End = k.end
			}
			continue
		}
		if ci > 0 {
			cur.Components = comps[curStart:ci:ci]
			out[n] = cur
			n++
		}
		curStart = ci
		comps[ci] = Component{Key: k.key, Start: k.start, Own: k.own}
		ci++
		cur = Interruption{CPU: cpu, Start: k.start, End: k.end, Total: k.own}
	}
	cur.Components = comps[curStart:ci:ci]
	out[n] = cur
}

// buildInterruptionsParallel groups each CPU's noise spans into
// interruptions over a worker pool, in two phases: first every CPU's
// keys are sorted and its interruption count dry-run in parallel, then
// the full interruption list and one global component arena are
// allocated once and the workers fill disjoint subranges in place.
// CPUs are independent and their ranges concatenate in ascending CPU
// order; each CPU's keys arrive in record order (the replay writes
// them), the sequence the oracle's builder groups.
//
// Workers check ctx at every CPU claim; on cancellation both pools are
// still joined and the context's error is returned.
func (r *Report) buildInterruptionsParallel(ctx context.Context, noiseIdx [][]ispanKey, gap int64, workers int) error {
	cpuIDs := make([]int32, 0, len(noiseIdx))
	for c := range noiseIdx {
		if len(noiseIdx[c]) > 0 {
			cpuIDs = append(cpuIDs, int32(c))
		}
	}
	if len(cpuIDs) == 0 {
		return ctx.Err()
	}
	if workers > len(cpuIDs) {
		workers = len(cpuIDs)
	}
	if workers < 1 {
		workers = 1
	}

	keysPer := make([][]ispanKey, len(cpuIDs))
	counts := make([]int, len(cpuIDs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(cpuIDs) {
					return
				}
				// The index was written in record order; sort it in place
				// (nothing else reads it after this phase).
				keysPer[i] = noiseIdx[cpuIDs[i]]
				sortInterruptionKeys(keysPer[i])
				counts[i] = countInterruptions(keysPer[i], gap)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}

	// Exclusive prefix sums: each CPU's slot in the interruption list
	// and the component arena.
	intOffs := make([]int, len(cpuIDs)+1)
	keyOffs := make([]int, len(cpuIDs)+1)
	for i := range cpuIDs {
		intOffs[i+1] = intOffs[i] + counts[i]
		keyOffs[i+1] = keyOffs[i] + len(keysPer[i])
	}
	r.Interruptions = make([]Interruption, intOffs[len(cpuIDs)])
	comps := make([]Component, keyOffs[len(cpuIDs)])

	next.Store(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(cpuIDs) {
					return
				}
				fillInterruptions(cpuIDs[i], keysPer[i], gap,
					r.Interruptions[intOffs[i]:intOffs[i+1]],
					comps[keyOffs[i]:keyOffs[i+1]])
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// finish shares the tail of the parallel paths: boundary-drop
// accounting, interruption grouping, and the interruption budget. A
// non-nil error is the context's own (the caller wraps it).
func (r *Report) finish(ctx context.Context, walkers []cpuWalker, windows map[int64]*window, noiseIdx [][]ispanKey, opts Options, shards int) error {
	for i := range walkers {
		r.Dropped += walkers[i].dropped + len(walkers[i].stack)
	}
	r.Dropped += len(windows)
	if err := r.buildInterruptionsParallel(ctx, noiseIdx, opts.GapNS, shards); err != nil {
		return err
	}
	r.applyInterruptionBudget(opts.Budget)
	return nil
}

// AnalyzeParallel runs the full noise analysis sharded across per-CPU
// event streams using up to `shards` workers (≤ 0 means GOMAXPROCS);
// Analyze is this call at one shard. The report is bit-identical at
// every shard count, budgets included: per-CPU span reconstruction is
// exact (nesting never crosses a CPU) and the final accumulation
// replays in the trace's global order (replay.go).
//
// Cancelling ctx stops the run at the next batch boundary with no
// leaked goroutines; the partial Report (marked Incomplete, with
// EventsConsumed/CPUsFinished) is returned together with an error
// wrapping both ErrCancelled and ctx.Err().
func AnalyzeParallel(ctx context.Context, tr *trace.Trace, opts Options, shards int) (*Report, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	var prog progress
	events, truncated := opts.Budget.truncate(tr.Events)
	first, last := eventSpan(events)
	// The process table is already in memory: reading it cannot fail.
	r, apps, _ := newReport(tr.CPUs, first, last, &opts, func() ([]trace.ProcInfo, error) { return tr.Procs, nil })
	r.Incomplete = truncated

	perCPU, ctl, dropped, err := partition(ctx, events, opts, tr.CPUs, shards, &prog)
	if err != nil {
		return r.markCancelled(&prog), cancelErr(ctx)
	}
	r.Dropped += dropped
	walkers, err := runWalkers(ctx, perCPU, opts.AttributeNesting, shards, &prog)
	if err != nil {
		return r.markCancelled(&prog), cancelErr(ctx)
	}
	r.prealloc(walkers, ctl.switches, opts.KeepDurations)
	windows, noiseIdx := r.replay(ctx, ctl, walkers, opts, apps)
	if ctx.Err() != nil {
		return r.markCancelled(&prog), cancelErr(ctx)
	}
	if err := r.finish(ctx, walkers, windows, noiseIdx, opts, shards); err != nil {
		return r.markCancelled(&prog), cancelErr(ctx)
	}
	r.EventsConsumed = uint64(len(events))
	return r, nil
}

// AnalyzeRaw runs the sharded analysis directly over the undecoded
// bytes of a fixed-format trace in a random-access source (a file or a
// bytes.Reader), using up to `shards` workers (≤ 0 means GOMAXPROCS).
// It never materialises the full []Event: the partition phase bulk-
// decodes the raw records through reused arenas into compact per-CPU
// sub-streams, handing finished chunks to the concurrently running
// walkers (partition and walk overlap; see rawHandoff). The report is
// bit-identical to Analyze(trace.Read(...)) on the same bytes.
//
// This is the fastest path from trace bytes to a Report and the one the
// noisebench pipeline benchmark exercises.
//
// Cancelling ctx stops the run at the next batch boundary with no
// leaked goroutines; the partial Report (marked Incomplete, with
// EventsConsumed/CPUsFinished) is returned together with an error
// wrapping both ErrCancelled and ctx.Err(). An event/byte budget
// truncates the scan to the trace's prefix without reading the rest.
func AnalyzeRaw(ctx context.Context, ra io.ReaderAt, size int64, opts Options, shards int) (*Report, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	rt, err := trace.OpenRaw(ra, size)
	if err != nil {
		return nil, err
	}
	var prog progress
	count := rt.EventCount()
	truncated := false
	if limit := opts.Budget.eventCap(); count > limit {
		count, truncated = limit, true
	}
	// The consumed range needs only its two end records decoded; under a
	// budget it is the consumed prefix, like eventSpan in the other paths.
	var first, last int64
	if count > 0 {
		ev, err := rt.Event(0)
		if err != nil {
			return nil, err
		}
		first = ev.TS
		if ev, err = rt.Event(count - 1); err != nil {
			return nil, err
		}
		last = ev.TS
	}
	r, apps, err := newReport(rt.CPUs(), first, last, &opts, rt.Procs)
	if err != nil {
		return nil, err
	}
	r.Incomplete = truncated

	// Overlapped partition + walk: the walkers start first, blocked on
	// the hand-off, and consume each chunk as the scan finishes it.
	hand := newRawHandoff(rawChunkCount(count, shards))
	var (
		walkers []cpuWalker
		werr    error
		wwg     sync.WaitGroup
	)
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		walkers, werr = runWalkersSegs(ctx, hand, rt.CPUs(), opts.AttributeNesting, shards, &prog)
	}()
	ctl, dropped, err := partitionRaw(ctx, rt, opts, shards, count, &prog, hand)
	wwg.Wait()
	if err != nil {
		if ctx.Err() != nil {
			return r.markCancelled(&prog), cancelErr(ctx)
		}
		return nil, err
	}
	if werr != nil {
		return r.markCancelled(&prog), cancelErr(ctx)
	}
	r.Dropped += dropped
	r.prealloc(walkers, ctl.switches, opts.KeepDurations)
	windows, noiseIdx := r.replay(ctx, ctl, walkers, opts, apps)
	if ctx.Err() != nil {
		return r.markCancelled(&prog), cancelErr(ctx)
	}
	if err := r.finish(ctx, walkers, windows, noiseIdx, opts, shards); err != nil {
		return r.markCancelled(&prog), cancelErr(ctx)
	}
	r.EventsConsumed = count
	recycleRaw(hand, walkers)
	return r, nil
}

// streamBatch is one routed slice of a CPU's entry/exit sub-stream.
type streamBatch struct {
	cpu int32
	evs []cev
}

// streamBatchMax caps one CPU's hand-off batch on the stream path.
const streamBatchMax = 4096

// AnalyzeStream runs the sharded analysis over a streaming decoder
// without materialising the whole event section: events are decoded in
// batches, routed to per-CPU walker goroutines as they arrive (decode
// overlaps with span reconstruction), and only the control stream and
// the reconstructed spans are retained for the replay. The report is
// bit-identical to Analyze/AnalyzeParallel on the same trace.
//
// Its buffers come from pools and go back when the run ends, so a
// steady-state caller allocates little beyond the Report. A CPU's
// hand-off batch is taken on its first record and holds count/CPUs
// records (at most streamBatchMax, count capped by Decoder.Prealloc),
// so all batches together stay within the cap; the control stream and
// span lists are pre-sized only from a count checked against the
// input's size.
//
// If opts.AppPIDs is nil the application set is taken from the trace's
// process table, which the decoder reads after the last event.
//
// Cancelling ctx stops the run at the next decode batch with no leaked
// goroutines (the walker pool is always drained and joined); the
// partial Report (marked Incomplete, with EventsConsumed) is returned
// together with an error wrapping both ErrCancelled and ctx.Err(). An
// event/byte budget stops decoding at the cap and degrades to a
// prefix-complete report.
func AnalyzeStream(ctx context.Context, d *trace.Decoder, opts Options, shards int) (*Report, error) {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	ncpu := d.CPUs()
	workers := max(min(shards, ncpu), 1)
	eventCap := opts.Budget.eventCap()
	hint := min(d.Prealloc(), eventCap)
	batchLen := int(min(max(hint/uint64(ncpu), 1), streamBatchMax))
	var sized uint64 // count-proportional pre-sizing: only a checked count
	if d.Sized() {
		sized = hint
	}
	spanHint := int(sized / uint64(2*ncpu)) // about half the records are exits

	walkers := make([]cpuWalker, ncpu)
	for c := range walkers {
		walkers[c].attributeNesting = opts.AttributeNesting
	}
	out := chunkOut{
		perCPU:  make([][]cev, ncpu),
		exitCPU: getSlice[int32](&exitPool, int(sized/2)),
		sched:   getSlice[schedRec](&schedPool, int(sized/8)),
	}
	arena := getSlice[trace.Event](&arenaPool, rawBatch)[:rawBatch]
	chans := make([]chan streamBatch, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		chans[w] = make(chan streamBatch, 64)
		wg.Add(1)
		go func(ch chan streamBatch) {
			defer wg.Done()
			for b := range ch {
				wk := &walkers[b.cpu]
				if wk.spans == nil {
					wk.spans = getSlice[spanRec](&spanPool, spanHint)
				}
				for _, ev := range b.evs {
					wk.step(ev)
				}
				putSlice(&batchPool, b.evs)
			}
		}(chans[w])
	}
	// join drains and joins the walker pool. The deferred call runs it
	// on every return path, panics included: no goroutine leaks, and no
	// walker still writes a buffer once it is back in its pool.
	join := func() {
		for _, ch := range chans {
			close(ch)
		}
		chans = nil
		wg.Wait()
	}
	defer func() {
		join()
		recycleStream(&out, walkers, arena)
	}()
	// spill hands a CPU's full batch to its walker and takes a fresh one.
	spill := func(cpu int32) {
		if b := out.perCPU[cpu]; len(b) > 0 {
			chans[int(cpu)%workers] <- streamBatch{cpu: cpu, evs: b}
		}
		out.perCPU[cpu] = getSlice[cev](&batchPool, batchLen)
	}

	var prog progress
	var firstTS, lastTS int64
	truncated, seen := false, false
	for {
		if ctx.Err() != nil {
			return (&Report{CPUs: ncpu}).markCancelled(&prog), cancelErr(ctx)
		}
		n, err := d.Next(arena)
		evs := arena[:n]
		if left := eventCap - prog.events.Load(); uint64(len(evs)) > left {
			evs, truncated = evs[:left], true
		}
		prog.events.Add(uint64(len(evs)))
		if len(evs) > 0 {
			if !seen {
				firstTS, seen = evs[0].TS, true
			}
			lastTS = evs[len(evs)-1].TS
			out.route(evs, &opts, spill)
		}
		if truncated || err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	for c, b := range out.perCPU {
		if len(b) > 0 {
			chans[c%workers] <- streamBatch{cpu: int32(c), evs: b}
		}
		out.perCPU[c] = nil
	}
	join()
	r, apps, err := newReport(ncpu, firstTS, lastTS, &opts, func() ([]trace.ProcInfo, error) {
		// A budget cap leaves undecoded events ahead of the process
		// table; skip them unparsed so classification still works.
		if err := d.Skip(); err != nil {
			return nil, err
		}
		return d.Procs()
	})
	if err != nil {
		return nil, err
	}
	r.Incomplete = truncated
	r.Dropped += out.dropped
	ctl := ctlStream{exitCPU: out.exitCPU, sched: out.sched, switches: out.switches}
	r.prealloc(walkers, ctl.switches, opts.KeepDurations)
	windows, noiseIdx := r.replay(ctx, ctl, walkers, opts, apps)
	if ctx.Err() != nil {
		return r.markCancelled(&prog), cancelErr(ctx)
	}
	if err := r.finish(ctx, walkers, windows, noiseIdx, opts, shards); err != nil {
		return r.markCancelled(&prog), cancelErr(ctx)
	}
	r.EventsConsumed = prog.events.Load()
	return r, nil
}

// recycleStream returns AnalyzeStream's buffers to their pools once its
// walkers are joined. The Report copies everything it keeps, so nothing
// reachable from it aliases them.
func recycleStream(out *chunkOut, walkers []cpuWalker, arena []trace.Event) {
	for _, b := range out.perCPU {
		putSlice(&batchPool, b)
	}
	putSlice(&exitPool, out.exitCPU)
	putSlice(&schedPool, out.sched)
	for i := range walkers {
		putSlice(&spanPool, walkers[i].spans)
	}
	putSlice(&arenaPool, arena)
}
