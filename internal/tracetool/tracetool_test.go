package tracetool

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

func sample() *trace.Trace {
	return &trace.Trace{CPUs: 2, Lost: 1, Events: []trace.Event{
		{TS: 100, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		{TS: 300, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
		{TS: 400, CPU: 1, ID: trace.EvTrapEntry, Arg1: trace.TrapPageFault},
		{TS: 900, CPU: 1, ID: trace.EvTrapExit, Arg1: trace.TrapPageFault},
		{TS: 1000, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 5, Arg2: 6, Arg3: 0},
	}}
}

func TestDump(t *testing.T) {
	var buf bytes.Buffer
	if err := Dump(&buf, sample(), 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"timer_interrupt", "page_fault", "prev=5 next=6", "cpu1"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 5 {
		t.Fatalf("dump lines %d, want 5", got)
	}
}

func TestDumpLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := Dump(&buf, sample(), 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 more events") {
		t.Fatalf("limit footer missing:\n%s", buf.String())
	}
}

func TestFilterByCPU(t *testing.T) {
	got := Filter{CPU: 1}.Apply(sample())
	if len(got.Events) != 2 {
		t.Fatalf("cpu filter kept %d events", len(got.Events))
	}
	for _, ev := range got.Events {
		if ev.CPU != 1 {
			t.Fatalf("wrong cpu %d", ev.CPU)
		}
	}
}

func TestFilterByTimeAndName(t *testing.T) {
	f := Filter{CPU: -1, FromNS: 200, ToNS: 950, Names: []string{"trap_entry", "trap_exit"}}
	got := f.Apply(sample())
	if len(got.Events) != 2 {
		t.Fatalf("combined filter kept %d events", len(got.Events))
	}
	if got.Events[0].ID != trace.EvTrapEntry {
		t.Fatalf("wrong event %v", got.Events[0].ID)
	}
}

func TestMerge(t *testing.T) {
	a := sample()
	b := sample()
	merged := Merge(a, b)
	if merged.CPUs != 4 {
		t.Fatalf("merged cpus %d, want 4", merged.CPUs)
	}
	if len(merged.Events) != 10 {
		t.Fatalf("merged events %d", len(merged.Events))
	}
	if merged.Lost != 2 {
		t.Fatalf("merged lost %d", merged.Lost)
	}
	// Second trace's CPUs remapped to 2..3; order by time.
	seen := map[int32]bool{}
	prev := int64(-1)
	for _, ev := range merged.Events {
		seen[ev.CPU] = true
		if ev.TS < prev {
			t.Fatal("merged trace not sorted")
		}
		prev = ev.TS
	}
	for cpu := int32(0); cpu < 4; cpu++ {
		if !seen[cpu] {
			t.Fatalf("cpu %d missing after merge", cpu)
		}
	}
}

// TestMergeMatchesStableSort: Merge equals a stable sort by (TS, CPU) of
// the inputs concatenated with their CPUs remapped, also when an input
// is out of order or carries CPU labels outside its range, and it leaves
// its inputs untouched. A CPU outside its own input's range becomes -1,
// never a CPU of another input's block.
func TestMergeMatchesStableSort(t *testing.T) {
	a := &trace.Trace{CPUs: 2, Events: []trace.Event{
		{TS: 100, CPU: 1, Arg3: 0},
		{TS: 100, CPU: 0, Arg3: 1}, // (TS, CPU) inversion
		{TS: 50, CPU: 3, Arg3: 2},  // time inversion, CPU beyond the input's range
		{TS: 200, CPU: -1, Arg3: 3},
	}}
	b := &trace.Trace{CPUs: 1, Events: []trace.Event{
		{TS: 50, CPU: 0, Arg3: 4},
		{TS: 100, CPU: -1, Arg3: 5}, // would land on a's CPU 1 if remapped
		{TS: 100, CPU: 0, Arg3: 6},
		{TS: 100, CPU: 0, Arg3: 7},
	}}
	c := &trace.Trace{CPUs: 2, Events: []trace.Event{
		{TS: 60, CPU: 1, Arg3: 8},
		{TS: 100, CPU: 0, Arg3: 9},
	}}
	for _, tc := range []struct {
		name    string
		in      []*trace.Trace
		outside int // events outside their input's CPU range
	}{
		{"two", []*trace.Trace{a, b}, 3},
		// a's CPU 3 would otherwise land on c's CPU 0 (CPU 3 of the
		// merged trace), a later input's block.
		{"three", []*trace.Trace{a, b, c}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, want []trace.Event
			base := int32(0)
			for _, tr := range tc.in {
				before = append(before, tr.Events...)
				for _, ev := range tr.Events {
					if ev.CPU < 0 || int(ev.CPU) >= tr.CPUs {
						ev.CPU = -1
					} else {
						ev.CPU += base
					}
					want = append(want, ev)
				}
				base += int32(tr.CPUs)
			}
			sort.SliceStable(want, func(i, j int) bool {
				if want[i].TS != want[j].TS {
					return want[i].TS < want[j].TS
				}
				return want[i].CPU < want[j].CPU
			})
			got := Merge(tc.in...)
			if !reflect.DeepEqual(got.Events, want) {
				t.Fatalf("merged\n%v\nwant\n%v", got.Events, want)
			}
			outside := 0
			for _, ev := range got.Events {
				if ev.CPU == -1 {
					outside++
				}
			}
			if outside != tc.outside {
				t.Fatalf("%d events on CPU -1, want %d", outside, tc.outside)
			}
			var after []trace.Event
			for _, tr := range tc.in {
				after = append(after, tr.Events...)
			}
			if !reflect.DeepEqual(after, before) {
				t.Fatal("Merge modified its inputs")
			}
		})
	}
}

// TestMergeOutOfRangeCPUDropped: an event outside its input's CPU range
// survives the codec as CPU -1 in the merged trace, and every engine
// drops it and counts it in Dropped, as it does on that input alone.
func TestMergeOutOfRangeCPUDropped(t *testing.T) {
	wakeup := func(ts int64, cpu int32) trace.Event {
		return trace.Event{TS: ts, CPU: cpu, ID: trace.EvSchedWakeup, Arg1: 9, Arg2: 0}
	}
	a := &trace.Trace{CPUs: 2, Events: []trace.Event{wakeup(10, 0), wakeup(20, 2), wakeup(30, 1)}}
	b := &trace.Trace{CPUs: 1, Events: []trace.Event{wakeup(15, -1), wakeup(25, 0)}}
	c := &trace.Trace{CPUs: 2, Events: []trace.Event{wakeup(12, 1), wakeup(22, 0)}}
	inputs := []*trace.Trace{a, b, c}
	opts := noise.DefaultOptions()
	want := 0
	for _, tr := range inputs {
		want += noise.Analyze(tr, opts).Dropped
	}
	if want != 2 {
		t.Fatalf("inputs alone drop %d events, want 2", want)
	}

	merged := Merge(inputs...)
	var buf bytes.Buffer
	if err := trace.Write(&buf, merged); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	decoded, err := trace.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded.Events, merged.Events) {
		t.Fatalf("codec round trip changed the events:\n%v\nwant\n%v", decoded.Events, merged.Events)
	}

	ctx := context.Background()
	engines := map[string]func() (*noise.Report, error){
		"Analyze": func() (*noise.Report, error) { return noise.Analyze(decoded, opts), nil },
		"AnalyzeParallel": func() (*noise.Report, error) {
			return noise.AnalyzeParallel(ctx, decoded, opts, 2)
		},
		"AnalyzeRaw": func() (*noise.Report, error) {
			return noise.AnalyzeRaw(ctx, bytes.NewReader(raw), int64(len(raw)), opts, 2)
		},
		"AnalyzeStream": func() (*noise.Report, error) {
			d, err := trace.NewDecoder(bytes.NewReader(raw))
			if err != nil {
				return nil, err
			}
			return noise.AnalyzeStream(ctx, d, opts, 2)
		},
	}
	for name, run := range engines {
		rep, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Dropped != want {
			t.Errorf("%s: dropped %d of the merged trace, want %d", name, rep.Dropped, want)
		}
	}
}

// TestStatRenderTieOrder: IDs with equal counts print in ID order, the
// same on every call.
func TestStatRenderTieOrder(t *testing.T) {
	ids := []trace.ID{trace.EvSchedSwitch, trace.EvIRQEntry, trace.EvTrapExit,
		trace.EvSyscallEntry, trace.EvSchedWakeup, trace.EvProcessExit}
	tr := &trace.Trace{CPUs: 1}
	for i, id := range ids {
		tr.Events = append(tr.Events, trace.Event{TS: int64(i), ID: id})
	}
	sorted := append([]trace.ID(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var want strings.Builder
	want.WriteString("6 events over 0.000 s (0 lost)\n")
	for _, id := range sorted {
		fmt.Fprintf(&want, "  %-22s %8d\n", id, 1)
	}
	fmt.Fprintf(&want, "  cpu%-3d %8d\n", 0, 6)
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := Stat(tr).Render(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != want.String() {
			t.Fatalf("render %d:\n%s\nwant\n%s", i, buf.String(), want.String())
		}
	}
}

func TestStat(t *testing.T) {
	s := Stat(sample())
	if s.Total != 5 || s.Lost != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.PerID[trace.EvIRQEntry] != 1 || s.PerCPU[1] != 2 {
		t.Fatalf("per-id/per-cpu wrong: %+v", s)
	}
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "5 events") {
		t.Fatalf("render:\n%s", buf.String())
	}
}

func TestDescribeCoverage(t *testing.T) {
	cases := []struct {
		ev   trace.Event
		want string
	}{
		{trace.Event{ID: trace.EvSchedWakeup, Arg1: 9, Arg2: 2}, "pid=9 cpu=2"},
		{trace.Event{ID: trace.EvSchedMigrate, Arg1: 9, Arg2: 1, Arg3: 3}, "9 1->3"},
		{trace.Event{ID: trace.EvSyscallEntry, Arg1: 1}, "nr=1"},
		{trace.Event{ID: trace.EvTrapEntry, Arg1: 6}, "trap 6"},
		{trace.Event{ID: trace.EvAppQuantum, Arg1: 1, Arg2: 2}, "args=(1,2,0)"},
		{trace.Event{ID: trace.EvAppWaitBegin}, ""},
	}
	for _, c := range cases {
		if got := describe(c.ev); !strings.Contains(got, c.want) {
			t.Errorf("describe(%v) = %q, want contains %q", c.ev.ID, got, c.want)
		}
	}
}
