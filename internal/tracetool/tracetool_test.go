package tracetool

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

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
// its inputs untouched.
func TestMergeMatchesStableSort(t *testing.T) {
	a := &trace.Trace{CPUs: 2, Events: []trace.Event{
		{TS: 100, CPU: 1, Arg3: 0},
		{TS: 100, CPU: 0, Arg3: 1}, // (TS, CPU) inversion
		{TS: 50, CPU: 3, Arg3: 2},  // time inversion, CPU beyond the input's range
		{TS: 200, CPU: -1, Arg3: 3},
	}}
	b := &trace.Trace{CPUs: 1, Events: []trace.Event{
		{TS: 50, CPU: 0, Arg3: 4},
		{TS: 100, CPU: -1, Arg3: 5}, // remaps onto a's CPU 1
		{TS: 100, CPU: 0, Arg3: 6},
		{TS: 100, CPU: 0, Arg3: 7},
	}}
	before := append(append([]trace.Event(nil), a.Events...), b.Events...)
	want := append([]trace.Event(nil), a.Events...)
	for _, ev := range b.Events {
		ev.CPU += 2
		want = append(want, ev)
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].TS != want[j].TS {
			return want[i].TS < want[j].TS
		}
		return want[i].CPU < want[j].CPU
	})
	got := Merge(a, b)
	if !reflect.DeepEqual(got.Events, want) {
		t.Fatalf("merged\n%v\nwant\n%v", got.Events, want)
	}
	if after := append(append([]trace.Event(nil), a.Events...), b.Events...); !reflect.DeepEqual(after, before) {
		t.Fatal("Merge modified its inputs")
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
