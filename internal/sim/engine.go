package sim

import "fmt"

// Priorities order events that fire at the same virtual instant. Hardware
// comes before software: an interrupt asserted at time t is observed
// before a timer callback scheduled for t.
const (
	PrioInterrupt = 0
	PrioKernel    = 10
	PrioTask      = 20
	PrioTeardown  = 100
)

// Engine drives a single simulated node: it owns the virtual clock and the
// event queue. Engine is not safe for concurrent use; multi-node
// simulations run one Engine per goroutine (see internal/cluster).
type Engine struct {
	now     Time
	queue   Queue
	stopped bool
	fired   uint64
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn at the absolute virtual time at. Scheduling in the past
// panics: it would silently corrupt causality.
func (e *Engine) At(at Time, priority int, fn Handler) EventRef {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	return e.queue.Push(at, priority, fn)
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d Duration, priority int, fn Handler) EventRef {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, priority, fn)
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event. It reports false when
// the queue is empty.
func (e *Engine) Step() bool {
	at, fn, ok := e.queue.Pop()
	if !ok {
		return false
	}
	if at < e.now {
		panic("sim: event queue produced time travel")
	}
	e.now = at
	e.fired++
	fn(e.now)
	return true
}

// Run executes events until the queue drains, Stop is called, or the
// clock passes horizon (inclusive). It returns the final virtual time.
func (e *Engine) Run(horizon Time) Time {
	e.stopped = false
	for !e.stopped {
		at, ok := e.queue.PeekTime()
		if !ok || at > horizon {
			break
		}
		e.Step()
	}
	if e.now < horizon && !e.stopped {
		e.now = horizon
	}
	return e.now
}

// RunUntilIdle executes events until none remain or Stop is called.
func (e *Engine) RunUntilIdle() Time {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	return e.now
}

// Pending returns the number of events currently queued (including
// cancelled entries that have not yet been drained).
func (e *Engine) Pending() int { return e.queue.Len() }
