package trace

import "slices"

// compareEvents is the trace order: timestamp, then CPU. It is the one
// definition of that order; MergeStreams and its per-stream fix-up sort
// both use it.
func compareEvents(a, b *Event) int {
	switch {
	case a.TS < b.TS:
		return -1
	case a.TS > b.TS:
		return 1
	case a.CPU < b.CPU:
		return -1
	case a.CPU > b.CPU:
		return 1
	}
	return 0
}

// byTrace is compareEvents for the slices package.
func byTrace(a, b Event) int { return compareEvents(&a, &b) }

// MergeStreams returns the events of every stream in trace order, by
// (TS, CPU), in one exact-size slice (nil when there are none). Each
// stream is a list of chunks read one after another, as the Collector
// holds a CPU's sub-buffers; chunks may be empty. Events equal in both
// keys keep their stream order, and within a stream their position, so
// the result is exactly a stable sort of the streams' concatenation by
// (TS, CPU): restricted to one stream that sort is the stream's own
// stable sort, and merging in-order streams with cross-stream ties
// broken by stream index interleaves them as the concatenation would.
// A stream not already in (TS, CPU) order, within a chunk or across a
// chunk boundary, is stable-sorted first, as a copy: the streams
// themselves are never modified.
//
// Each CPU's ring buffer yields its events in emission order, already in
// time order, so the Collector, Session.Collect and tracetool.Merge
// build a trace by merging, in O(N log k) for N events in k streams,
// instead of sorting all N events, and the result is the only copy the
// merge makes. A rule for ordering same-instant records other than by
// CPU belongs here, in compareEvents.
func MergeStreams(streams [][][]Event) []Event {
	n := 0
	for _, s := range streams {
		for _, c := range s {
			n += len(c)
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	h := make(mergeHeap, 0, len(streams))
	for i, s := range streams {
		if !streamSorted(s) {
			flat := slices.Concat(s...)
			slices.SortStableFunc(flat, byTrace)
			s = [][]Event{flat}
		}
		if m := (mergeHead{later: s, stream: i}); m.next() {
			h = append(h, m)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h) > 1 {
		top := &h[0]
		out = append(out, top.rest[0])
		if top.rest = top.rest[1:]; len(top.rest) == 0 && !top.next() {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	out = append(out, h[0].rest...)
	for _, c := range h[0].later {
		out = append(out, c...)
	}
	return out
}

// streamSorted reports whether the concatenation of chunks is in
// (TS, CPU) order, boundaries between chunks included.
func streamSorted(chunks [][]Event) bool {
	var last *Event
	for _, c := range chunks {
		if len(c) == 0 {
			continue
		}
		if last != nil && compareEvents(last, &c[0]) > 0 {
			return false
		}
		if !slices.IsSortedFunc(c, byTrace) {
			return false
		}
		last = &c[len(c)-1]
	}
	return true
}

// mergeHead is one stream's unconsumed events: the rest of its current
// chunk, whose first event is the head, and the chunks after it.
type mergeHead struct {
	rest   []Event
	later  [][]Event
	stream int
}

// next moves the head to the stream's next non-empty chunk, reporting
// false when the stream is exhausted.
func (m *mergeHead) next() bool {
	for len(m.later) > 0 {
		m.rest, m.later = m.later[0], m.later[1:]
		if len(m.rest) > 0 {
			return true
		}
	}
	return false
}

// mergeHeap is a binary min-heap of stream heads by (TS, CPU, stream).
type mergeHeap []mergeHead

// before orders two heads; stream indices are distinct, so it is total.
func (h mergeHeap) before(i, j int) bool {
	if c := compareEvents(&h[i].rest[0], &h[j].rest[0]); c != 0 {
		return c < 0
	}
	return h[i].stream < h[j].stream
}

// down restores the heap property below i.
func (h mergeHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h.before(r, l) {
			m = r
		}
		if !h.before(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
