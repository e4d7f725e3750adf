package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{50, 10, 30, 20, 40} {
		at := at
		e.At(at, PrioKernel, func(now Time) { got = append(got, now) })
	}
	e.RunUntilIdle()
	for i := 1; i < len(got); i++ {
		if got[i-1] > got[i] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestEngineSameTimePriority(t *testing.T) {
	e := NewEngine()
	var order []string
	e.At(100, PrioTask, func(Time) { order = append(order, "task") })
	e.At(100, PrioInterrupt, func(Time) { order = append(order, "irq") })
	e.At(100, PrioKernel, func(Time) { order = append(order, "kernel") })
	e.RunUntilIdle()
	want := []string{"irq", "kernel", "task"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestEngineSameTimeSamePriorityFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 20; i++ {
		i := i
		e.At(5, PrioKernel, func(Time) { order = append(order, i) })
	}
	e.RunUntilIdle()
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-priority events not FIFO: %v", order)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ref := e.At(10, PrioKernel, func(Time) { fired = true })
	if !ref.Pending() {
		t.Fatal("event should be pending")
	}
	if !ref.Cancel() {
		t.Fatal("Cancel should report true for pending event")
	}
	if ref.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.RunUntilIdle()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(10, 0, func(now Time) { fired = append(fired, now) })
	e.At(100, 0, func(now Time) { fired = append(fired, now) })
	end := e.Run(50)
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired %v, want [10]", fired)
	}
	if end != 50 {
		t.Fatalf("Run returned %v, want horizon 50", end)
	}
	// The event beyond the horizon must still be pending.
	e.Run(200)
	if len(fired) != 2 {
		t.Fatalf("second Run fired %v", fired)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, 0, func(Time) {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.RunUntilIdle()
	if count != 3 {
		t.Fatalf("Stop did not halt engine: fired %d", count)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, 0, func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, 0, func(Time) {})
	})
	e.RunUntilIdle()
}

func TestEngineAfterClampsNegative(t *testing.T) {
	e := NewEngine()
	fired := Time(-1)
	e.At(100, 0, func(Time) {
		e.After(-5, 0, func(now Time) { fired = now })
	})
	e.RunUntilIdle()
	if fired != 100 {
		t.Fatalf("After(-5) fired at %v, want 100", fired)
	}
}

func TestEngineCascade(t *testing.T) {
	// Events scheduled from handlers execute in causal order.
	e := NewEngine()
	var depth int
	var maxDepth int
	var schedule func(d int)
	schedule = func(d int) {
		e.After(1, 0, func(Time) {
			depth = d
			if d > maxDepth {
				maxDepth = d
			}
			if d < 100 {
				schedule(d + 1)
			}
		})
	}
	schedule(1)
	e.RunUntilIdle()
	if maxDepth != 100 || depth != 100 {
		t.Fatalf("cascade reached depth %d", maxDepth)
	}
	if e.Now() != 100 {
		t.Fatalf("clock at %v, want 100", e.Now())
	}
}

// Property: any batch of events fires exactly once, in nondecreasing time
// order, regardless of insertion order.
func TestQueueProperty(t *testing.T) {
	if err := quick.Check(func(times []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, at := range times {
			at := Time(at)
			e.At(at, 0, func(now Time) { fired = append(fired, now) })
		}
		e.RunUntilIdle()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i-1] > fired[i] {
				return false
			}
		}
		// Multiset equality with inputs.
		want := make([]int, len(times))
		got := make([]int, len(fired))
		for i, v := range times {
			want[i] = int(v)
		}
		for i, v := range fired {
			got[i] = int(v)
		}
		sort.Ints(want)
		sort.Ints(got)
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{2178, "2.178µs"},
		{1842, "1.842µs"},
		{75 * Millisecond, "75ms"},
		{2500000, "2.5ms"},
		{3 * Second, "3s"},
		{-2178, "-2.178µs"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if s := (2 * Second).Seconds(); s != 2 {
		t.Fatalf("Seconds = %v", s)
	}
	if us := (1500 * Nanosecond).Micros(); us != 1.5 {
		t.Fatalf("Micros = %v", us)
	}
}

// Regression: a cancelled event at the queue head must not swallow the
// next valid event when the engine peeks for the horizon check.
func TestCancelledHeadDoesNotEatNextEvent(t *testing.T) {
	e := NewEngine()
	ref := e.At(10, PrioKernel, func(Time) { t.Error("cancelled event fired") })
	fired := false
	e.At(20, PrioKernel, func(Time) { fired = true })
	ref.Cancel()
	e.Run(100)
	if !fired {
		t.Fatal("valid event after cancelled head never fired")
	}
}

// A handle kept after its event fired or was drained must not reach the
// event that reuses the storage: Cancel and Pending on it do nothing,
// and the new event still fires.
func TestStaleEventRefAfterReuse(t *testing.T) {
	for _, c := range []struct {
		name string
		end  func(e *Engine, ref EventRef) // retires ref's event
	}{
		{"fired", func(e *Engine, _ EventRef) { e.RunUntilIdle() }},
		{"cancelled and drained", func(e *Engine, ref EventRef) { ref.Cancel(); e.RunUntilIdle() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			stale := e.At(10, PrioKernel, func(Time) {})
			c.end(e, stale)
			fired := false
			fresh := e.At(20, PrioKernel, func(Time) { fired = true })
			if fresh.ev != stale.ev {
				t.Fatal("the queue did not reuse the retired event's storage")
			}
			if stale.Pending() {
				t.Fatal("stale handle reports the reused event pending")
			}
			if stale.Cancel() {
				t.Fatal("stale handle cancelled the reused event")
			}
			if !fresh.Pending() {
				t.Fatal("new event not pending")
			}
			e.RunUntilIdle()
			if !fired {
				t.Fatal("the event reusing a stale handle's storage did not fire")
			}
		})
	}
}

// Scheduling and firing in steady state allocates nothing once the
// handler is bound: fired and drained events are recycled.
func TestScheduleAndFireAllocFree(t *testing.T) {
	e := NewEngine()
	n := 0
	h := Handler(func(Time) { n++ })
	allocs := testing.AllocsPerRun(1000, func() {
		dead := e.After(2, PrioKernel, h)
		e.After(1, PrioTask, h)
		dead.Cancel()
		e.Run(e.Now() + 2)
	})
	if allocs != 0 {
		t.Fatalf("schedule, cancel and fire allocated %v times per run, want 0", allocs)
	}
	if n != 1001 {
		t.Fatalf("handler fired %d times, want 1001", n)
	}
}
