package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestSessionEmitCollect(t *testing.T) {
	s := NewSession(Config{CPUs: 2, SubBufs: 2, SubBufLen: 8})
	s.Start()
	s.Emit(Event{TS: 30, CPU: 1, ID: EvIRQEntry, Arg1: IRQTimer})
	s.Emit(Event{TS: 10, CPU: 0, ID: EvTrapEntry, Arg1: TrapPageFault})
	s.Emit(Event{TS: 20, CPU: 0, ID: EvTrapExit, Arg1: TrapPageFault})
	tr := s.Collect()
	if len(tr.Events) != 3 {
		t.Fatalf("collected %d events", len(tr.Events))
	}
	// Sorted by timestamp across CPUs.
	for i, want := range []int64{10, 20, 30} {
		if tr.Events[i].TS != want {
			t.Fatalf("event %d TS %d, want %d", i, tr.Events[i].TS, want)
		}
	}
	if tr.CPUs != 2 {
		t.Fatalf("CPUs %d", tr.CPUs)
	}
}

func TestSessionEmitBeforeStart(t *testing.T) {
	s := NewSession(Config{CPUs: 1, SubBufs: 2, SubBufLen: 8})
	s.Emit(Event{TS: 1, ID: EvIRQEntry})
	s.Start()
	s.Emit(Event{TS: 2, ID: EvIRQEntry})
	tr := s.Collect()
	if len(tr.Events) != 1 || tr.Events[0].TS != 2 {
		t.Fatalf("events %v", tr.Events)
	}
}

func TestSessionFilter(t *testing.T) {
	s := NewSession(Config{CPUs: 1, SubBufs: 2, SubBufLen: 8})
	s.Start()
	s.Disable(EvSyscallEntry)
	s.Emit(Event{TS: 1, ID: EvSyscallEntry})
	s.Emit(Event{TS: 2, ID: EvIRQEntry})
	if !s.Enabled(EvIRQEntry) || s.Enabled(EvSyscallEntry) {
		t.Fatal("filter state wrong")
	}
	tr := s.Collect()
	if len(tr.Events) != 1 || tr.Events[0].ID != EvIRQEntry {
		t.Fatalf("filtered trace: %v", tr.Events)
	}
}

func TestSessionExplicitEnabledList(t *testing.T) {
	s := NewSession(Config{CPUs: 1, SubBufs: 2, SubBufLen: 8,
		Enabled: []ID{EvTrapEntry, EvTrapExit}})
	s.Start()
	s.Emit(Event{TS: 1, ID: EvIRQEntry})
	s.Emit(Event{TS: 2, ID: EvTrapEntry})
	tr := s.Collect()
	if len(tr.Events) != 1 || tr.Events[0].ID != EvTrapEntry {
		t.Fatalf("trace: %v", tr.Events)
	}
}

func TestSessionOverhead(t *testing.T) {
	s := NewSession(Config{CPUs: 1, SubBufs: 2, SubBufLen: 8, OverheadPerEvent: 120})
	s.Start()
	if oh := s.Emit(Event{TS: 1, ID: EvIRQEntry}); oh != 120 {
		t.Fatalf("overhead %d, want 120", oh)
	}
	s.Disable(EvIRQEntry)
	if oh := s.Emit(Event{TS: 2, ID: EvIRQEntry}); oh != 0 {
		t.Fatalf("filtered event charged overhead %d", oh)
	}
}

func TestSessionBadCPUDropped(t *testing.T) {
	s := NewSession(Config{CPUs: 1, SubBufs: 2, SubBufLen: 8})
	s.Start()
	// Events naming a CPU outside the session's range — which can only
	// come from replaying a corrupt trace — are dropped and counted as
	// lost instead of panicking.
	if oh := s.Emit(Event{TS: 1, CPU: 5, ID: EvIRQEntry}); oh != 0 {
		t.Fatalf("out-of-range CPU charged overhead %d", oh)
	}
	s.Emit(Event{TS: 2, CPU: -3, ID: EvIRQEntry})
	if got := s.Lost(); got != 2 {
		t.Fatalf("lost = %d, want 2", got)
	}
	if got := s.Recorded(); got != 0 {
		t.Fatalf("recorded = %d, want 0", got)
	}
}

func TestTraceSpanAndFilter(t *testing.T) {
	tr := &Trace{CPUs: 2, Events: []Event{
		{TS: 100, CPU: 0, ID: EvIRQEntry},
		{TS: 200, CPU: 1, ID: EvTrapEntry},
		{TS: 300, CPU: 0, ID: EvIRQExit},
	}}
	first, last := tr.Span()
	if first != 100 || last != 300 {
		t.Fatalf("span [%d,%d]", first, last)
	}
	if s := tr.DurationSeconds(); s != 200e-9 {
		t.Fatalf("duration %v", s)
	}
	only := tr.Filter(func(e Event) bool { return e.ID == EvTrapEntry })
	if len(only.Events) != 1 || only.Events[0].TS != 200 {
		t.Fatalf("filter result %v", only.Events)
	}
	per := tr.PerCPU()
	if len(per[0]) != 2 || len(per[1]) != 1 {
		t.Fatalf("per-cpu split %d/%d", len(per[0]), len(per[1]))
	}
}

func TestTraceEmptySpan(t *testing.T) {
	tr := &Trace{CPUs: 1}
	if f, l := tr.Span(); f != 0 || l != 0 {
		t.Fatal("empty trace span should be zero")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := &Trace{CPUs: 8, Lost: 7, Events: []Event{
		{TS: 1, CPU: 0, ID: EvIRQEntry, Arg1: IRQTimer},
		{TS: 2178, CPU: 3, ID: EvSoftIRQEntry, Arg1: SoftIRQTimer, Arg2: -5, Arg3: 42},
		{TS: 1 << 60, CPU: 7, ID: EvSchedSwitch, Arg1: -1, Arg2: 99},
	}}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.CPUs != tr.CPUs || got.Lost != tr.Lost || len(got.Events) != len(tr.Events) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

// Property: encode→decode is the identity on arbitrary event payloads.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(ts []int64, arg1 []int64, cpus uint8) bool {
		n := len(ts)
		if len(arg1) < n {
			n = len(arg1)
		}
		tr := &Trace{CPUs: int(cpus%16) + 1}
		for i := 0; i < n; i++ {
			tr.Events = append(tr.Events, Event{
				TS: ts[i], CPU: int32(i % tr.CPUs),
				ID: ID(i % NumIDs), Arg1: arg1[i], Arg2: ts[i] ^ arg1[i],
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTATRACEFILE..."))); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestCodecTruncated(t *testing.T) {
	tr := &Trace{CPUs: 1, Events: []Event{{TS: 1, ID: EvIRQEntry}}}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("truncated trace decoded without error")
	}
}

func TestIDNames(t *testing.T) {
	if EvIRQEntry.String() != "irq_entry" {
		t.Fatalf("name %q", EvIRQEntry.String())
	}
	if ID(9999).String() != "id(9999)" {
		t.Fatalf("unknown name %q", ID(9999).String())
	}
	if SoftIRQName(SoftIRQTimer) != "run_timer_softirq" {
		t.Fatalf("softirq name %q", SoftIRQName(SoftIRQTimer))
	}
	if SoftIRQName(99) != "softirq?" {
		t.Fatalf("unknown softirq name %q", SoftIRQName(99))
	}
	if IRQName(IRQNet) != "network_interrupt" {
		t.Fatalf("irq name %q", IRQName(IRQNet))
	}
	if IRQName(9) != "irq9" {
		t.Fatalf("irq name %q", IRQName(9))
	}
}

func TestEntryExitPairs(t *testing.T) {
	entries := []ID{EvIRQEntry, EvSoftIRQEntry, EvTaskletEntry, EvTrapEntry, EvSyscallEntry, EvSchedEntry}
	for _, id := range entries {
		if !id.IsEntry() {
			t.Errorf("%v not recognised as entry", id)
		}
		exit := id.ExitFor()
		if exit == EvNone || !exit.IsExit() {
			t.Errorf("%v has bad exit pair %v", id, exit)
		}
	}
	if EvSchedWakeup.IsEntry() || EvSchedWakeup.IsExit() {
		t.Error("sched_wakeup misclassified")
	}
	if EvSchedWakeup.ExitFor() != EvNone {
		t.Error("non-entry has exit pair")
	}
}

func TestProcessTableRoundTrip(t *testing.T) {
	s := NewSession(Config{CPUs: 1, SubBufs: 2, SubBufLen: 8})
	s.Start()
	s.RegisterProcess(ProcInfo{PID: 100, Name: "rpciod", Kind: ProcKernelDaemon})
	s.RegisterProcess(ProcInfo{PID: 101, Name: "AMG-rank", Kind: ProcApp})
	s.Emit(Event{TS: 1, ID: EvIRQEntry})
	tr := s.Collect()
	if len(tr.Procs) != 2 {
		t.Fatalf("procs = %d", len(tr.Procs))
	}
	apps := tr.AppPIDs()
	if !apps[101] || apps[100] {
		t.Fatalf("app pid derivation wrong: %v", apps)
	}

	// Both codecs carry the table.
	var fixed, compressed bytes.Buffer
	if err := Write(&fixed, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteCompressed(&compressed, tr); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"fixed": &fixed, "compressed": &compressed} {
		got, err := ReadAny(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Procs) != 2 || got.Procs[1].Name != "AMG-rank" || got.Procs[0].Kind != ProcKernelDaemon {
			t.Fatalf("%s: procs %+v", name, got.Procs)
		}
	}
}

func TestAppPIDsNilWithoutTable(t *testing.T) {
	tr := &Trace{CPUs: 1}
	if tr.AppPIDs() != nil {
		t.Fatal("AppPIDs should be nil without a table")
	}
}

// The Collector (consumer-daemon analogue) drains sub-buffers while the
// session runs and produces a complete sorted trace with the process
// table attached.
func TestCollector(t *testing.T) {
	s := NewSession(Config{CPUs: 2, SubBufs: 2, SubBufLen: 4})
	s.Start()
	s.RegisterProcess(ProcInfo{PID: 1, Name: "app", Kind: ProcApp})
	c := NewCollector(s)
	// Fill more than one sub-buffer on cpu0 so Drain consumes it.
	for i := 0; i < 6; i++ {
		s.Emit(Event{TS: int64(i), CPU: 0, ID: EvIRQEntry})
	}
	c.Drain()
	if c.Len() != 4 { // one full sub-buffer (4 slots) drained
		t.Fatalf("collector drained %d events, want 4", c.Len())
	}
	s.Emit(Event{TS: 10, CPU: 1, ID: EvIRQExit})
	tr := c.Finalize()
	if len(tr.Events) != 7 {
		t.Fatalf("finalized %d events, want 7", len(tr.Events))
	}
	for i := 1; i < len(tr.Events); i++ {
		if tr.Events[i-1].TS > tr.Events[i].TS {
			t.Fatal("finalized trace not sorted")
		}
	}
	if len(tr.Procs) != 1 || tr.Procs[0].Name != "app" {
		t.Fatalf("procs %+v", tr.Procs)
	}
}

func TestSessionAccessors(t *testing.T) {
	cfg := DefaultConfig(4)
	if cfg.CPUs != 4 || cfg.SubBufs == 0 || cfg.SubBufLen == 0 {
		t.Fatalf("default config %+v", cfg)
	}
	s := NewSession(cfg)
	if s.Config().CPUs != 4 {
		t.Fatal("Config accessor wrong")
	}
	s.Start()
	s.Disable(EvIRQEntry)
	s.Enable(EvIRQEntry)
	if !s.Enabled(EvIRQEntry) {
		t.Fatal("Enable did not re-enable")
	}
	s.Emit(Event{TS: 1, ID: EvIRQEntry})
	if s.Recorded() != 1 {
		t.Fatalf("recorded %d", s.Recorded())
	}
	r := NewRing(2, 4, Discard)
	if r.Cap() != 8 {
		t.Fatalf("cap %d", r.Cap())
	}
	ev := Event{TS: 5, CPU: 1, ID: EvSchedSwitch, Arg1: 2, Arg2: 3, Arg3: 4}
	if got := ev.String(); got == "" {
		t.Fatal("empty event string")
	}
}

// TestCollectorAllocatesWhatItKeeps bounds what a single-writer session
// allocates from its first Emit through Finalize: the sub-buffers it
// wrote, each allocated on first write and taken without a copy, plus
// the merged slice, plus a little slack for the lists and the Trace. A
// ring zeroed up front or a copy on the way to the merge exceeds it.
func TestCollectorAllocatesWhatItKeeps(t *testing.T) {
	const cpus, subBufLen, perCPU = 4, 1024, 25_000
	s := NewSession(Config{CPUs: cpus, SubBufs: 8, SubBufLen: subBufLen})
	s.Start()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCollector(s)
	for i := 0; i < cpus*perCPU; i++ {
		s.Emit(Event{TS: int64(i / cpus), CPU: int32(i % cpus), ID: EvIRQEntry})
		if i%2048 == 2047 {
			c.Drain()
		}
	}
	tr := c.Finalize()
	runtime.ReadMemStats(&after)
	if tr.Lost != 0 || len(tr.Events) != cpus*perCPU {
		t.Fatalf("collected %d events, lost %d; want %d, none lost", len(tr.Events), tr.Lost, cpus*perCPU)
	}
	size := reflect.TypeOf(Event{}).Size()
	subBufs := uint64(cpus * ((perCPU + subBufLen - 1) / subBufLen))
	const slack = 64 << 10
	bound := (subBufs*subBufLen+uint64(len(tr.Events)))*uint64(size) + slack
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("Emit through Finalize allocated %d bytes, want at most %d (%d sub-buffers + merged slice + %d slack)", got, bound, subBufs, slack)
	}
}

// An Overwrite session keeps each CPU's newest intact sub-buffers, and
// Collect returns them, as Snapshot reads them, merged by (TS, CPU).
func TestCollectOverwriteSession(t *testing.T) {
	s := NewSession(Config{CPUs: 2, SubBufs: 2, SubBufLen: 4, Mode: Overwrite})
	s.Start()
	for i := 0; i < 20; i++ {
		s.Emit(Event{TS: int64(i), CPU: int32(i % 2), ID: EvIRQEntry})
	}
	// Each CPU wrote 10 events into 8 slots; its oldest sub-buffer is
	// partly overwritten, so positions 4..9 survive: TS 8..19 in all.
	tr := s.Collect()
	if len(tr.Events) != 12 {
		t.Fatalf("collected %d events, want 12", len(tr.Events))
	}
	for i, ev := range tr.Events {
		if ev.TS != int64(8+i) {
			t.Fatalf("event %d has TS %d, want %d", i, ev.TS, 8+i)
		}
	}
}
