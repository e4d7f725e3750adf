package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
	Op     int64  `json:"op"`     // the operation (rep, run, stream) it served
}

// recorder keeps spans in memory until the run ends. Spans nest: a span
// begun while another is open becomes its child. The traced replays run
// on one goroutine, so the recorder is not safe for concurrent use.
type recorder struct {
	on    bool // record spans
	alloc bool // also count the bytes each call allocates
	t0    time.Time
	spans []span
	open  int32    // innermost open span, -1 when none
	op    int64    // operations begun so far; the current one's id
	roots []string // root span name of each operation, by id-1
	// values sums counts recorded with add, per name and operation.
	values map[string]map[int64]float64
}

func newRecorder(on bool) *recorder {
	return &recorder{on: on, t0: time.Now(), open: -1, values: map[string]map[int64]float64{}}
}

// call runs fn inside a span named name. When counting allocations it
// adds the heap MiB fn allocated as "<name>.alloc_mb", read outside the
// span so the reads are not timed.
func (r *recorder) call(name string, fn func()) {
	var before runtime.MemStats
	if r.alloc {
		runtime.ReadMemStats(&before)
	}
	i := r.begin(name)
	fn()
	r.end(i)
	if r.alloc {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		r.add(name+".alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
}

// add counts v under name for the current operation; nothing while
// recording is off.
func (r *recorder) add(name string, v float64) {
	if !r.on {
		return
	}
	ops := r.values[name]
	if ops == nil {
		ops = map[int64]float64{}
		r.values[name] = ops
	}
	ops[r.op] += v
}

// value is the median over operations of what add counted under name.
func (r *recorder) value(name string) float64 {
	v, _ := r.perOp(r.values[name])
	return v
}

// replay runs op back to back for at least d and at least four times,
// each run an operation under a root span named root. After one warm-up
// operation that is not counted, operations cycle through three modes:
// spans off, spans on, and spans on with allocation counting. It returns
// the tracing overhead: the median spans-on operation time over the
// median spans-off one.
func (r *recorder) replay(ctx context.Context, root string, d time.Duration, op func() error) (float64, error) {
	defer func(on bool) { r.on, r.alloc = on, false }(r.on)
	var off, on []float64
	deadline := time.Now().Add(d)
	for i := -1; i < 3 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		mode := i % 3 // -1 for the warm-up: spans off, not counted
		r.on, r.alloc = mode > 0, mode == 2
		t := time.Now()
		h := r.begin(root)
		err := op()
		r.end(h)
		el := float64(time.Since(t))
		if err != nil {
			return 0, err
		}
		switch mode {
		case 0:
			off = append(off, el)
		case 1:
			on = append(on, el)
		}
	}
	return median(on) / median(off), nil
}

// begin opens a span and returns its handle for end; -1 when recording
// is off.
func (r *recorder) begin(name string) int32 {
	if !r.on {
		return -1
	}
	if r.open < 0 {
		r.op++
		r.roots = append(r.roots, name)
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.t0)), Parent: r.open, Op: r.op})
	r.open = int32(len(r.spans) - 1)
	return r.open
}

// end closes the span begin returned.
func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	s := &r.spans[i]
	s.End = int64(time.Since(r.t0))
	r.open = s.Parent
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Self  float64 `json:"self_ms"`   // total self time
	P50   float64 `json:"p50_ms"`    // median duration of one span
	PerOp float64 `json:"per_op_ms"` // median over operations of the self time in one
	// SetupOnly marks a span that occurred only while setting up, so
	// PerOp is over the set-ups rather than the replayed operations.
	SetupOnly bool `json:"setup_only"`
}

// perOp is the median of per-operation totals: over the replayed
// operations when any has one, else over the set-ups.
func (r *recorder) perOp(totals map[int64]float64) (v float64, setupOnly bool) {
	var replayed, setup []float64
	for op, x := range totals {
		if r.roots[op-1] == "setup" {
			setup = append(setup, x)
		} else {
			replayed = append(replayed, x)
		}
	}
	if len(replayed) > 0 {
		return median(replayed), false
	}
	return median(setup), true
}

// stats computes self time (duration minus the time child spans cover),
// count, median span duration and the median per-operation self time for
// each span name, ordered by name.
func (r *recorder) stats() []spanStat {
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	type acc struct {
		durs  []float64
		self  int64
		perOp map[int64]float64
	}
	by := map[string]*acc{}
	for i, s := range r.spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{perOp: map[int64]float64{}}
			by[s.Name] = a
		}
		a.durs = append(a.durs, float64(s.End-s.Start)/1e6)
		a.self += self[i]
		a.perOp[s.Op] += float64(self[i]) / 1e6
	}
	out := make([]spanStat, 0, len(by))
	for name, a := range by {
		perOp, setupOnly := r.perOp(a.perOp)
		out = append(out, spanStat{Name: name, Count: len(a.durs), Self: float64(a.self) / 1e6,
			P50: median(a.durs), PerOp: perOp, SetupOnly: setupOnly})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// layerSelf totals self time by layer, the span name up to its first dot.
func layerSelf(st []spanStat) map[string]float64 {
	out := map[string]float64{}
	for _, s := range st {
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += s.Self
	}
	return out
}

// printStats writes the span table and the self time per layer.
func printStats(w io.Writer, st []spanStat) {
	fmt.Fprintf(w, "%-26s %8s %12s %10s %12s\n", "span", "count", "self_ms", "p50_ms", "per_op_ms")
	for _, s := range st {
		fmt.Fprintf(w, "%-26s %8d %12.3f %10.4f %12.4f\n", s.Name, s.Count, s.Self, s.P50, s.PerOp)
	}
	layers := layerSelf(st)
	names := make([]string, 0, len(layers))
	var total float64
	for l, v := range layers {
		names = append(names, l)
		total += v
	}
	sort.Strings(names)
	fmt.Fprintf(w, "self time by layer:\n")
	for _, l := range names {
		fmt.Fprintf(w, "  %-12s %12.3f ms %6.1f%%\n", l, layers[l], 100*layers[l]/total)
	}
}

// writeSpans saves every recorded span and the per-name table as JSON.
func writeSpans(path string, r *recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Stats []spanStat `json:"stats"`
		Spans []span     `json:"spans"`
	}{r.stats(), r.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
