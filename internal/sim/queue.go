package sim

// Handler is a callback invoked when a scheduled event fires.
type Handler func(now Time)

// event is an entry in the queue. Events with equal time fire in
// (priority, seq) order so that simulation results are independent of heap
// internals. A fired or drained event goes back on the queue's free list
// and is reused by a later Push; gen counts those reuses, so a handle
// taken before one no longer names the event.
type event struct {
	at       Time
	priority int
	seq      uint64
	gen      uint64
	fn       Handler
	canceled bool
	index    int // position in the heap, -1 when popped
}

// EventRef is an opaque handle to a scheduled event, usable to cancel it.
// It stays valid after the event fires or is drained: Cancel and Pending
// on such a stale handle do nothing, even once the queue has reused the
// event's storage for another Push.
type EventRef struct {
	ev  *event
	gen uint64
}

// Cancel marks the event so that it will not fire. Cancelling an already
// fired or already cancelled event is a no-op. It reports whether the
// event was still pending.
func (r EventRef) Cancel() bool {
	if !r.Pending() {
		return false
	}
	r.ev.canceled = true
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (r EventRef) Pending() bool {
	return r.ev != nil && r.ev.gen == r.gen && !r.ev.canceled && r.ev.index != -1
}

// Queue is a stable min-heap of timed events. The zero value is ready to
// use. Popped events are recycled through a free list, so a simulation
// in steady state schedules without allocating.
type Queue struct {
	heap []*event
	free []*event
	seq  uint64
}

// Len returns the number of events in the queue, including cancelled ones
// not yet drained.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules fn at time at with the given priority (lower fires
// first among events at the same instant).
func (q *Queue) Push(at Time, priority int, fn Handler) EventRef {
	q.seq++
	var ev *event
	if n := len(q.free); n > 0 {
		ev = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.priority, ev.seq, ev.fn, ev.canceled = at, priority, q.seq, fn, false
	q.heap = append(q.heap, ev)
	ev.index = len(q.heap) - 1
	q.up(ev.index)
	return EventRef{ev, ev.gen}
}

// popHead removes the heap head regardless of cancellation, recycles it
// and returns its time, handler and whether it was cancelled.
func (q *Queue) popHead() (Time, Handler, bool) {
	ev := q.heap[0]
	n := len(q.heap) - 1
	q.swap(0, n)
	q.heap[n] = nil
	q.heap = q.heap[:n]
	if n > 0 {
		q.down(0)
	}
	at, fn, canceled := ev.at, ev.fn, ev.canceled
	ev.index = -1
	ev.gen++
	ev.fn = nil
	q.free = append(q.free, ev)
	return at, fn, canceled
}

// Pop removes the earliest non-cancelled event and returns its time and
// handler; ok is false if the queue holds no pending events. The event
// is recycled before its handler runs, so every EventRef to it is stale
// by then.
func (q *Queue) Pop() (at Time, fn Handler, ok bool) {
	for len(q.heap) > 0 {
		if at, fn, canceled := q.popHead(); !canceled {
			return at, fn, true
		}
	}
	return 0, nil, false
}

// PeekTime returns the firing time of the earliest pending event. The
// second result is false if the queue holds no pending events. Cancelled
// events at the head are drained (and only those).
func (q *Queue) PeekTime() (Time, bool) {
	for len(q.heap) > 0 && q.heap[0].canceled {
		q.popHead()
	}
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
