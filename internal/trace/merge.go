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
// (TS, CPU), in one exact-size slice (nil when there are none). Events
// equal in both keep their stream order, and within a stream their
// position, so the result is exactly a stable sort of the streams'
// concatenation by (TS, CPU): restricted to one stream that sort is the
// stream's own stable sort, and merging in-order streams with
// cross-stream ties broken by stream index interleaves them as the
// concatenation would. A stream not already in (TS, CPU) order is
// stable-sorted in place first.
//
// Each CPU's ring buffer yields its events in emission order, already in
// time order, so the Collector, Session.Collect and tracetool.Merge
// build a trace by merging, in O(N log k) for N events in k streams,
// instead of sorting all N events. A rule for ordering same-instant
// records other than by CPU belongs here, in compareEvents.
func MergeStreams(streams [][]Event) []Event {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	h := make(mergeHeap, 0, len(streams))
	for i, s := range streams {
		if len(s) == 0 {
			continue
		}
		if !slices.IsSortedFunc(s, byTrace) {
			slices.SortStableFunc(s, byTrace)
		}
		h = append(h, mergeHead{rest: s, stream: i})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h) > 1 {
		top := &h[0]
		out = append(out, top.rest[0])
		if top.rest = top.rest[1:]; len(top.rest) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	return append(out, h[0].rest...)
}

// mergeHead is one stream's unconsumed events; rest[0] is its head.
type mergeHead struct {
	rest   []Event
	stream int
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
