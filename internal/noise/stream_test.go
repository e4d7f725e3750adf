package noise_test

// The stream front-end's pooling contract: AnalyzeStream takes its
// working buffers from pools and returns them, so reused buffers never
// change a report, a steady-state caller allocates about what its
// Report keeps, and a header that lies about its size buys nothing.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"

	"osnoise/internal/noise"
	"osnoise/internal/sim"
	"osnoise/internal/trace"
	"osnoise/internal/workload"
)

// raceDetector is set when the tests run under -race.
var raceDetector bool

// unsized hides a reader's length, as a socket or a request body does,
// so the decoder cannot check the header's event count.
func unsized(b []byte) io.Reader { return struct{ io.Reader }{bytes.NewReader(b)} }

// TestStreamPooledRunsMatchOracle alternates traces of different sizes
// and CPU counts through AnalyzeStream over unsized readers, so every
// run after the first works in buffers an earlier, different run gave
// back, and compares each report with the oracle's.
func TestStreamPooledRunsMatchOracle(t *testing.T) {
	budgeted := noise.DefaultOptions()
	budgeted.Budget.MaxEvents = 5000
	variants := optionVariants()
	variants["budgeted"] = budgeted
	traces := []*trace.Trace{simTrace(1), handTraces()[0].tr, simTrace(6)}
	for name, opts := range variants {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards%d", name, shards), func(t *testing.T) {
				for round := 0; round < 2; round++ {
					for i, tr := range traces {
						d, err := trace.NewDecoder(unsized(encodeTrace(t, tr)))
						if err != nil {
							t.Fatal(err)
						}
						got, err := noise.AnalyzeStream(context.Background(), d, opts, shards)
						if err != nil {
							t.Fatalf("trace %d: %v", i, err)
						}
						compareReports(t, noise.AnalyzeOracle(tr, opts), got)
					}
				}
			})
		}
	}
}

// reportBytes is what a Report keeps on the heap: the struct, its span
// and interruption arrays, the component arena the interruptions share
// and the per-key statistics.
func reportBytes(r *noise.Report) uint64 {
	size := func(v any) uint64 { return uint64(reflect.TypeOf(v).Size()) }
	n := size(*r) + uint64(cap(r.Spans))*size(noise.Span{}) +
		uint64(cap(r.Interruptions))*size(noise.Interruption{})
	for _, in := range r.Interruptions {
		n += uint64(cap(in.Components)) * size(noise.Component{})
	}
	for _, ks := range r.PerKey {
		if ks != nil {
			n += size(*ks) + uint64(cap(ks.Durations))*8
		}
	}
	return n
}

// TestStreamAllocSteadyState: after a warm-up call, AnalyzeStream at one
// shard over a 1 s AMG stream (84,518 events on 8 CPUs) allocates at
// most the bytes its Report keeps plus a fixed slack, over a sized and
// over an unsized reader. The slack holds the replay's interruption
// index and per-run tables, about 1.3 MB here; the front-end's hand-off
// batches, control stream, span lists and decode arena all come back
// from their pools.
func TestStreamAllocSteadyState(t *testing.T) {
	if raceDetector {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	const slack = 2 << 20
	tr := workload.New(workload.AMG(), workload.Options{Duration: sim.Second, Seed: 1}).Execute()
	raw := encodeTrace(t, tr)
	opts := noise.DefaultOptions()
	opts.KeepDurations = false // as noised's router sets for every tenant
	for _, sized := range []bool{true, false} {
		t.Run(fmt.Sprintf("sized=%v", sized), func(t *testing.T) {
			var d *trace.Decoder
			call := func() (rep *noise.Report, alloc uint64) {
				r := unsized(raw)
				if sized {
					r = bytes.NewReader(raw)
				}
				var err error
				if d == nil {
					d, err = trace.NewDecoder(r)
				} else {
					err = d.Reset(r)
				}
				if err != nil {
					t.Fatal(err)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				rep, err = noise.AnalyzeStream(context.Background(), d, opts, 1)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return rep, after.TotalAlloc - before.TotalAlloc
			}
			call() // warm-up: fills the pools
			// Two garbage collections between a Put and the next Get
			// empty a sync.Pool, so take the best of three calls.
			best := ^uint64(0)
			var bound uint64
			for i := 0; i < 3; i++ {
				rep, alloc := call()
				best = min(best, alloc)
				bound = reportBytes(rep) + slack
			}
			if best > bound {
				t.Fatalf("steady-state AnalyzeStream allocated %d bytes, want at most %d (Report %d + slack %d)",
					best, bound, bound-slack, slack)
			}
		})
	}
}

// TestStreamAllocHostileHeader: a 72-byte stream over an unsized reader
// whose header claims 2^40 events buys no buffers for them. Decoder and
// analysis together, with the pools empty, allocate no more than the
// unpooled front-end did (0.254, 0.256 and 14.41 MB at 1, 8 and MaxCPUs
// CPUs): the claim is capped by Decoder.Prealloc, and each CPU's batch
// is taken only on that CPU's first record, so the 65,536 declared
// CPUs cost one tiny batch, not 65,536 full ones.
func TestStreamAllocHostileHeader(t *testing.T) {
	if raceDetector {
		t.Skip("allocation bounds do not hold under the race detector")
	}
	for _, tc := range []struct {
		cpus  int
		bound uint64
	}{{1, 254_000}, {8, 256_000}, {trace.MaxCPUs, 14_410_000}} {
		t.Run(fmt.Sprintf("cpus%d", tc.cpus), func(t *testing.T) {
			raw := encodeTrace(t, &trace.Trace{CPUs: tc.cpus, Events: []trace.Event{
				{TS: 100, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
			}})
			raw = raw[:72] // header and the one event, no process table
			binary.LittleEndian.PutUint64(raw[24:], 1<<40)
			runtime.GC()
			runtime.GC() // empties every sync.Pool
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d, err := trace.NewDecoder(unsized(raw))
			if err == nil {
				_, err = noise.AnalyzeStream(context.Background(), d, noise.DefaultOptions(), 1)
			}
			runtime.ReadMemStats(&after)
			if !trace.IsInputError(err) {
				t.Fatalf("truncated stream: err = %v, want an input error", err)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > tc.bound {
				t.Fatalf("allocated %d bytes, want at most %d", got, tc.bound)
			}
		})
	}
}
