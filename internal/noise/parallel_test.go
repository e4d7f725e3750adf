package noise_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"osnoise/internal/noise"
	"osnoise/internal/sim"
	"osnoise/internal/trace"
	"osnoise/internal/workload"
)

// compareReports asserts got is bit-identical to want, including the
// order-sensitive floating-point summary state (compared via Float64bits
// of the derived moments, since m2/mean are unexported).
func compareReports(t *testing.T, want, got *noise.Report) {
	t.Helper()
	if want.CPUs != got.CPUs || math.Float64bits(want.Seconds) != math.Float64bits(got.Seconds) {
		t.Errorf("header: want cpus=%d s=%x, got cpus=%d s=%x",
			want.CPUs, math.Float64bits(want.Seconds), got.CPUs, math.Float64bits(got.Seconds))
	}
	if want.Dropped != got.Dropped {
		t.Errorf("dropped: want %d, got %d", want.Dropped, got.Dropped)
	}
	// Accounting invariant: every ingested record is either consumed or
	// (for routing rejects) counted in Dropped — every entry point must
	// agree with the sequential oracle on both tallies, which the
	// out-of-range-CPU events in the handmade trace exercise.
	if want.EventsConsumed != got.EventsConsumed {
		t.Errorf("events consumed: want %d, got %d", want.EventsConsumed, got.EventsConsumed)
	}
	if want.Incomplete != got.Incomplete ||
		want.InterruptionsTotal != got.InterruptionsTotal ||
		want.InterruptionsSampled != got.InterruptionsSampled {
		t.Errorf("degradation flags: want %v/%d/%v, got %v/%d/%v",
			want.Incomplete, want.InterruptionsTotal, want.InterruptionsSampled,
			got.Incomplete, got.InterruptionsTotal, got.InterruptionsSampled)
	}
	if want.TotalNoiseNS != got.TotalNoiseNS {
		t.Errorf("total noise: want %d, got %d", want.TotalNoiseNS, got.TotalNoiseNS)
	}
	if want.Breakdown != got.Breakdown {
		t.Errorf("breakdown: want %v, got %v", want.Breakdown, got.Breakdown)
	}
	for k := noise.Key(0); k < noise.NumKeys; k++ {
		ws, gs := want.PerKey[k], got.PerKey[k]
		if ws.Summary != gs.Summary {
			t.Errorf("%v summary: want %+v, got %+v", k, ws.Summary, gs.Summary)
		}
		if math.Float64bits(ws.Summary.Mean()) != math.Float64bits(gs.Summary.Mean()) ||
			math.Float64bits(ws.Summary.StdDev()) != math.Float64bits(gs.Summary.StdDev()) {
			t.Errorf("%v moments differ: want mean=%v sd=%v, got mean=%v sd=%v",
				k, ws.Summary.Mean(), ws.Summary.StdDev(), gs.Summary.Mean(), gs.Summary.StdDev())
		}
		if !reflect.DeepEqual(ws.Durations, gs.Durations) {
			t.Errorf("%v durations differ: %d vs %d entries", k, len(ws.Durations), len(gs.Durations))
		}
	}
	if !reflect.DeepEqual(want.Spans, got.Spans) {
		t.Errorf("spans differ: %d vs %d", len(want.Spans), len(got.Spans))
		for i := range want.Spans {
			if i < len(got.Spans) && want.Spans[i] != got.Spans[i] {
				t.Errorf("first divergence at span %d: want %+v, got %+v", i, want.Spans[i], got.Spans[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(want.Interruptions, got.Interruptions) {
		t.Errorf("interruptions differ: %d vs %d", len(want.Interruptions), len(got.Interruptions))
	}
}

// handTrace builds a trace from literal events.
func handTrace(cpus int, evs ...trace.Event) *trace.Trace {
	return &trace.Trace{CPUs: cpus, Events: evs}
}

// appRunning returns the boot switch that puts pid on cpu.
func appRunning(ts int64, cpu int32, pid int64) trace.Event {
	return trace.Event{TS: ts, CPU: cpu, ID: trace.EvSchedSwitch,
		Arg1: 0, Arg2: pid, Arg3: trace.TaskStateBlocked}
}

// simTrace runs a workload simulation long enough to exercise nesting,
// preemption windows, and migrations across several CPUs.
func simTrace(seed uint64) *trace.Trace {
	return workload.New(workload.AMG(), workload.Options{
		Duration: sim.Second / 2,
		Seed:     seed,
	}).Execute()
}

func optionVariants() map[string]noise.Options {
	base := noise.DefaultOptions()
	noNest := base
	noNest.AttributeNesting = false
	noFilter := base
	noFilter.RunnableFilter = false
	noDur := base
	noDur.KeepDurations = false
	windowed := base
	windowed.FromNS = 50_000_000
	windowed.ToNS = 350_000_000
	return map[string]noise.Options{
		"default":  base,
		"noNest":   noNest,
		"noFilter": noFilter,
		"noDur":    noDur,
		"windowed": windowed,
	}
}

// TestParallelMatchesSequential compares Analyze and AnalyzeParallel,
// at shard counts up to more than twice the CPU count, against the
// sequential oracle on simulated workload traces.
func TestParallelMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 6, 42} {
		tr := simTrace(seed)
		for name, opts := range optionVariants() {
			want := noise.AnalyzeOracle(tr, opts)
			t.Run(fmt.Sprintf("seed%d/%s/analyze", seed, name), func(t *testing.T) {
				compareReports(t, want, noise.Analyze(tr, opts))
			})
			for _, shards := range []int{1, 2, 4, 8, tr.CPUs*2 + 3} {
				t.Run(fmt.Sprintf("seed%d/%s/shards%d", seed, name, shards), func(t *testing.T) {
					got, err := noise.AnalyzeParallel(context.Background(), tr, opts, shards)
					if err != nil {
						t.Fatal(err)
					}
					compareReports(t, want, got)
				})
			}
		}
	}
}

func TestStreamMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 6} {
		tr := simTrace(seed)
		raw := encodeTrace(t, tr)
		for name, opts := range optionVariants() {
			want := noise.AnalyzeOracle(tr, opts)
			for _, shards := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("seed%d/%s/shards%d", seed, name, shards), func(t *testing.T) {
					d, err := trace.NewDecoder(bytes.NewReader(raw))
					if err != nil {
						t.Fatal(err)
					}
					got, err := noise.AnalyzeStream(context.Background(), d, opts, shards)
					if err != nil {
						t.Fatal(err)
					}
					compareReports(t, want, got)
				})
			}
		}
	}
}

// TestRawMatchesSequential locks the zero-materialisation path: running
// the analysis straight off the encoded trace bytes must reproduce the
// oracle's report bit for bit, windowing and ablations included.
func TestRawMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 6} {
		tr := simTrace(seed)
		raw := encodeTrace(t, tr)
		for name, opts := range optionVariants() {
			want := noise.AnalyzeOracle(tr, opts)
			for _, shards := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("seed%d/%s/shards%d", seed, name, shards), func(t *testing.T) {
					got, err := noise.AnalyzeRaw(context.Background(), bytes.NewReader(raw), int64(len(raw)), opts, shards)
					if err != nil {
						t.Fatal(err)
					}
					compareReports(t, want, got)
				})
			}
		}
	}
}

// encodeTrace returns tr in the binary trace format.
func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// shardedPaths are the sharded entry points, each run on a trace or its
// encoding.
var shardedPaths = []struct {
	suffix string // names the path in subtest names; "" is AnalyzeParallel
	run    func(tr *trace.Trace, raw []byte, opts noise.Options, shards int) (*noise.Report, error)
}{
	{"", func(tr *trace.Trace, _ []byte, opts noise.Options, shards int) (*noise.Report, error) {
		return noise.AnalyzeParallel(context.Background(), tr, opts, shards)
	}},
	{"/raw", func(_ *trace.Trace, raw []byte, opts noise.Options, shards int) (*noise.Report, error) {
		return noise.AnalyzeRaw(context.Background(), bytes.NewReader(raw), int64(len(raw)), opts, shards)
	}},
	{"/stream", func(_ *trace.Trace, raw []byte, opts noise.Options, shards int) (*noise.Report, error) {
		d, err := trace.NewDecoder(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		return noise.AnalyzeStream(context.Background(), d, opts, shards)
	}},
}

// namedTrace is one row of the hand-built trace table.
type namedTrace struct {
	name string
	tr   *trace.Trace
}

// handTraces are hand-built scheduler and span edge cases that seeded
// workloads produce rarely or never.
func handTraces() []namedTrace {
	// noApps is a long run of bare kernel spans with no application
	// events: every CPU stays ownerless, so under the runnable filter
	// none of it is noise, and with the filter off all of it is.
	var noApps []trace.Event
	for i := 0; i < 40; i++ {
		ts, cpu := int64(100+100*i), int32(i%2)
		noApps = append(noApps,
			trace.Event{TS: ts, CPU: cpu, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
			trace.Event{TS: ts + 20, CPU: cpu, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
		)
	}
	// ties are spans sharing identical start and end timestamps, four
	// bursts to a timestamp, so the interruption sort cannot order them
	// by key and must fall back to the record-order tie-break.
	ties := []trace.Event{appRunning(0, 0, 42), appRunning(0, 1, 43)}
	for i := 0; i < 12; i++ {
		ts, cpu := int64(100+50*(i/4)), int32(i%2)
		ties = append(ties,
			trace.Event{TS: ts, CPU: cpu, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
			trace.Event{TS: ts, CPU: cpu, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
		)
	}
	// badMigrate preempts app 42 on cpu 0, migrates it with the given
	// CPU arguments, and switches it in on cpu 1. A CPU argument outside
	// [0, 2) must neither index the per-CPU state nor move the window.
	badMigrate := func(from, to int64) *trace.Trace {
		return handTrace(2,
			appRunning(0, 0, 42),
			trace.Event{TS: 100, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 42, Arg2: 7, Arg3: trace.TaskStateRunning},
			trace.Event{TS: 200, CPU: 0, ID: trace.EvSchedMigrate, Arg1: 42, Arg2: from, Arg3: to},
			trace.Event{TS: 300, CPU: 1, ID: trace.EvSchedSwitch, Arg1: 0, Arg2: 42, Arg3: trace.TaskStateBlocked},
		)
	}
	return []namedTrace{
		{"migrateFromNegative", badMigrate(-1, 1)},
		{"migrateToNegative", badMigrate(0, -1)},
		{"migrateToBeyond", badMigrate(0, 100)},
		// Migration of a preempted task, out-of-range CPUs, unmatched
		// exits, a process exit closing a window, and a span left open at
		// the trace boundary.
		{"migration", handTrace(2,
			appRunning(0, 0, 42),
			trace.Event{TS: 100, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
			trace.Event{TS: 300, CPU: 1, ID: trace.EvIRQEntry, Arg1: trace.IRQNet},
			// Preempt 42 on cpu 0 while runnable.
			trace.Event{TS: 400, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 42, Arg2: 7, Arg3: trace.TaskStateRunning},
			trace.Event{TS: 500, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
			// Migrate the preempted task to cpu 1.
			trace.Event{TS: 600, CPU: 0, ID: trace.EvSchedMigrate, Arg1: 42, Arg2: 0, Arg3: 1},
			trace.Event{TS: 700, CPU: 1, ID: trace.EvIRQExit, Arg1: trace.IRQNet},
			// Unmatched exit on cpu 1 (span began before tracing).
			trace.Event{TS: 750, CPU: 1, ID: trace.EvTaskletExit, Arg1: trace.SoftIRQTimer},
			// Out-of-range CPU event must be dropped identically.
			trace.Event{TS: 760, CPU: 9, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
			// Resume 42 on cpu 1, closing the migrated window there.
			trace.Event{TS: 900, CPU: 1, ID: trace.EvSchedSwitch, Arg1: 0, Arg2: 42, Arg3: trace.TaskStateBlocked},
			// A second app task exits while preempted.
			trace.Event{TS: 950, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 7, Arg2: 8, Arg3: trace.TaskStateRunning},
			trace.Event{TS: 980, CPU: 0, ID: trace.EvProcessExit, Arg1: 7},
			// Leftover open span at the boundary.
			trace.Event{TS: 990, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		)},
		// Nested interruptions on cpu 1 while a preemption window stays
		// open on cpu 0; kernel work inside the window is charged to its
		// own key and subtracted from the wait the resume closes.
		{"nestedUnderWindow", handTrace(2,
			appRunning(0, 0, 42),
			appRunning(0, 1, 43),
			trace.Event{TS: 50, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 42, Arg2: 7, Arg3: trace.TaskStateRunning},
			// Trap inside softirq inside IRQ.
			trace.Event{TS: 100, CPU: 1, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
			trace.Event{TS: 110, CPU: 1, ID: trace.EvSoftIRQEntry, Arg1: trace.SoftIRQTimer},
			trace.Event{TS: 120, CPU: 1, ID: trace.EvTrapEntry, Arg1: trace.TrapPageFault},
			trace.Event{TS: 130, CPU: 1, ID: trace.EvTrapExit, Arg1: trace.TrapPageFault},
			trace.Event{TS: 140, CPU: 1, ID: trace.EvTrapEntry, Arg1: trace.TrapPageFault},
			trace.Event{TS: 150, CPU: 1, ID: trace.EvTrapExit, Arg1: trace.TrapPageFault},
			trace.Event{TS: 160, CPU: 1, ID: trace.EvSoftIRQExit, Arg1: trace.SoftIRQTimer},
			trace.Event{TS: 170, CPU: 1, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
			trace.Event{TS: 200, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQNet},
			trace.Event{TS: 230, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQNet},
			trace.Event{TS: 300, CPU: 1, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
			trace.Event{TS: 310, CPU: 1, ID: trace.EvTrapEntry, Arg1: trace.TrapPageFault},
			trace.Event{TS: 320, CPU: 1, ID: trace.EvTrapExit, Arg1: trace.TrapPageFault},
			trace.Event{TS: 330, CPU: 1, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
			trace.Event{TS: 400, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 7, Arg2: 42, Arg3: trace.TaskStateBlocked},
			trace.Event{TS: 450, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
			trace.Event{TS: 470, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
		)},
		{"noApps", handTrace(2, noApps...)},
		{"ties", handTrace(2, ties...)},
	}
}

// TestParallelHandmade runs every hand-built trace through Analyze and
// through every sharded entry point at 1, 2 and 8 shards, for every
// option variant, and compares each report against the oracle's.
func TestParallelHandmade(t *testing.T) {
	traces := handTraces()
	for name, opts := range optionVariants() {
		t.Run(name+"/analyze", func(t *testing.T) {
			for _, h := range traces {
				t.Run(h.name, func(t *testing.T) {
					compareReports(t, noise.AnalyzeOracle(h.tr, opts), noise.Analyze(h.tr, opts))
				})
			}
		})
		for _, shards := range []int{1, 2, 8} {
			for _, p := range shardedPaths {
				t.Run(fmt.Sprintf("%s/shards%d%s", name, shards, p.suffix), func(t *testing.T) {
					for _, h := range traces {
						t.Run(h.name, func(t *testing.T) {
							got, err := p.run(h.tr, encodeTrace(t, h.tr), opts, shards)
							if err != nil {
								t.Fatal(err)
							}
							compareReports(t, noise.AnalyzeOracle(h.tr, opts), got)
						})
					}
				})
			}
		}
	}
}

// TestMigrateCPUArgRule pins the rule every engine applies to a
// sched_migrate CPU argument outside [0, CPUs): the preemption window
// moves only onto a CPU the trace has, so the wait closed on cpu 1 is
// charged to the CPU the window stands on.
func TestMigrateCPUArgRule(t *testing.T) {
	want := map[string]int32{"migrateFromNegative": 1, "migrateToNegative": 0, "migrateToBeyond": 0}
	for _, h := range handTraces() {
		cpu, ok := want[h.name]
		if !ok {
			continue
		}
		rep := noise.Analyze(h.tr, noise.DefaultOptions())
		if len(rep.Spans) != 1 || rep.Spans[0].Key != noise.KeyPreemption || rep.Spans[0].CPU != cpu || rep.Spans[0].Wall != 200 {
			t.Errorf("%s: spans %+v, want one 200 ns preemption on cpu %d", h.name, rep.Spans, cpu)
		}
		delete(want, h.name)
	}
	if len(want) != 0 {
		t.Fatalf("hand traces missing: %v", want)
	}
}

// TestStartOnlyWindowSeconds pins Seconds for a window with a start and
// no end (ToNS = 0, "to the end of the trace"): it runs from FromNS to
// the last consumed event, floored at zero. The oracle is checked
// against the value and every entry point against the oracle's report,
// Seconds included.
func TestStartOnlyWindowSeconds(t *testing.T) {
	tr := handTrace(1,
		appRunning(0, 0, 42),
		trace.Event{TS: 1000, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		trace.Event{TS: 2000, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
		trace.Event{TS: 50_000, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		trace.Event{TS: 52_000, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
		trace.Event{TS: 90_000, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		trace.Event{TS: 100_000, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
	)
	raw := encodeTrace(t, tr)
	for _, c := range []struct {
		name      string
		from      int64
		maxEvents uint64
		want      float64
	}{
		{"toLastEvent", 40_000, 0, 60e-6},
		{"toLastConsumed", 40_000, 5, 12e-6}, // the budget stops at TS 52000
		{"pastLastEvent", 200_000, 0, 0},
	} {
		opts := noise.DefaultOptions()
		opts.FromNS = c.from
		opts.Budget.MaxEvents = c.maxEvents
		t.Run(c.name, func(t *testing.T) {
			want := noise.AnalyzeOracle(tr, opts)
			if want.Seconds != c.want {
				t.Errorf("oracle: seconds %v, want %v", want.Seconds, c.want)
			}
			compareReports(t, want, noise.Analyze(tr, opts))
			for _, p := range shardedPaths {
				r, err := p.run(tr, raw, opts, 2)
				if err != nil {
					t.Fatal(err)
				}
				compareReports(t, want, r)
			}
		})
	}
}
