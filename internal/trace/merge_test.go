package trace

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
)

// stableOracle is the order MergeStreams must reproduce, written out
// independently of it: the streams concatenated, then stable-sorted by
// timestamp and CPU.
func stableOracle(streams [][]Event) []Event {
	var all []Event
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].TS != all[j].TS {
			return all[i].TS < all[j].TS
		}
		return all[i].CPU < all[j].CPU
	})
	return all
}

// cloneChunks deep-copies chunked streams.
func cloneChunks(streams [][][]Event) [][][]Event {
	out := make([][][]Event, len(streams))
	for i, s := range streams {
		for _, c := range s {
			out[i] = append(out[i], append([]Event{}, c...))
		}
	}
	return out
}

// sameChunks reports whether a and b hold the same chunks of the same
// events.
func sameChunks(a, b [][][]Event) bool {
	return slices.EqualFunc(a, b, func(x, y [][]Event) bool {
		return slices.EqualFunc(x, y, slices.Equal[[]Event])
	})
}

// oneChunk holds each stream as a single chunk.
func oneChunk(streams [][]Event) [][][]Event {
	out := make([][][]Event, len(streams))
	for i, s := range streams {
		out[i] = [][]Event{s}
	}
	return out
}

// checkMerge compares MergeStreams with the oracle on streams, each held
// as one chunk.
func checkMerge(t *testing.T, name string, streams [][]Event) {
	t.Helper()
	checkChunkedMerge(t, name, oneChunk(streams))
}

// checkChunkedMerge compares MergeStreams with the oracle on chunked
// streams, which the oracle reads as each stream's concatenation, and
// checks that the merge left the streams as they were.
func checkChunkedMerge(t *testing.T, name string, streams [][][]Event) {
	t.Helper()
	flat := make([][]Event, len(streams))
	for i, s := range streams {
		flat[i] = slices.Concat(s...)
	}
	want := stableOracle(flat)
	before := cloneChunks(streams)
	got := MergeStreams(streams)
	if !sameChunks(streams, before) {
		t.Fatalf("%s: MergeStreams modified its input", name)
	}
	if len(got) != cap(got) {
		t.Fatalf("%s: merged slice has len %d, cap %d; want exact size", name, len(got), cap(got))
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("%s: %d events, first difference at %d:\ngot  %v\nwant %v", name, len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
			}
		}
		t.Fatalf("%s: merged %d events, want %d", name, len(got), len(want))
	}
}

// genStreams builds k streams for one trial. Timestamps come from a
// narrow range so equal timestamps across streams and equal (TS, CPU)
// within a stream are common; Arg3 numbers every event, so any change in
// the order of ties is visible. shape selects the CPU labelling and the
// disorder injected.
func genStreams(rng *rand.Rand, k, maxLen int, shape int) [][]Event {
	streams := make([][]Event, k)
	seq := int64(0)
	for i := range streams {
		n := rng.IntN(maxLen + 1)
		if rng.IntN(4) == 0 {
			n = 0 // empty streams
		}
		ts := int64(rng.IntN(5))
		for j := 0; j < n; j++ {
			ts += int64(rng.IntN(3)) // steps of 0 repeat a timestamp
			ev := Event{TS: ts, CPU: int32(i), ID: EvIRQEntry, Arg3: seq}
			seq++
			switch shape {
			case 1: // several CPUs per stream, as in a merged multi-node input
				ev.CPU = int32(rng.IntN(4))
			case 2: // out-of-range CPU labels, negative and beyond k
				ev.CPU = int32(rng.IntN(5)) - 2
				if rng.IntN(3) == 0 {
					ev.CPU = int32(k + rng.IntN(3))
				}
			}
			streams[i] = append(streams[i], ev)
		}
		// Keep the stream in (TS, CPU) order unless this trial injects
		// an inversion; CPU labels drawn above may break it on their own,
		// which the per-stream fix-up must also absorb.
		if shape == 3 && len(streams[i]) > 1 {
			a, b := rng.IntN(len(streams[i])), rng.IntN(len(streams[i]))
			streams[i][a], streams[i][b] = streams[i][b], streams[i][a]
		}
	}
	return streams
}

// splitChunks cuts each stream into chunks at random points, with empty
// chunks among them, as a collector holds a CPU's sub-buffers. With
// invert set it then swaps two non-empty chunks of each stream that has
// them, so every chunk stays in order but a boundary between two chunks
// may not be.
func splitChunks(rng *rand.Rand, streams [][]Event, invert bool) [][][]Event {
	out := make([][][]Event, len(streams))
	for i, s := range streams {
		for len(s) > 0 || rng.IntN(3) == 0 {
			n := min(rng.IntN(8), len(s))
			out[i] = append(out[i], s[:n:n])
			s = s[n:]
		}
		var full []int
		for j, c := range out[i] {
			if len(c) > 0 {
				full = append(full, j)
			}
		}
		if invert && len(full) > 1 {
			a, b := full[0], full[len(full)-1]
			out[i][a], out[i][b] = out[i][b], out[i][a]
		}
	}
	return out
}

// TestMergeStreamsMatchesStableSort is the property behind every trace
// the tracer collects: merging the streams equals a stable sort of their
// concatenation by (TS, CPU). Trials cycle through stream counts (k = 1
// and k = 1024 included) and six shapes: one CPU per stream, several
// CPUs per stream, out-of-range CPU labels, a forced inversion, and two
// chunked ones, where each stream is cut into chunks at random points
// with empty chunks among them, in order or with two chunks swapped.
func TestMergeStreamsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	ks := []int{1, 2, 3, 8, 17, 1024}
	for trial := 0; trial < 600; trial++ {
		k := ks[trial%len(ks)]
		shape := (trial / len(ks)) % 6
		maxLen := 60
		if k == 1024 {
			maxLen = 6
		}
		name := fmt.Sprintf("trial %d (k=%d shape=%d)", trial, k, shape)
		if shape < 4 {
			checkMerge(t, name, genStreams(rng, k, maxLen, shape))
			continue
		}
		streams := genStreams(rng, k, maxLen, 0)
		checkChunkedMerge(t, name, splitChunks(rng, streams, shape == 5))
	}
}

// TestMergeStreamsEdges pins the cases the random trials reach only by
// chance: no streams, only empty streams or chunks, a tie across streams
// whose stream order and CPU order disagree, and an inversion only a
// chunk boundary shows.
func TestMergeStreamsEdges(t *testing.T) {
	if got := MergeStreams(nil); got != nil {
		t.Fatalf("no streams merged to %v, want nil", got)
	}
	if got := MergeStreams(oneChunk([][]Event{nil, {}, nil})); got != nil {
		t.Fatalf("empty streams merged to %v, want nil", got)
	}
	checkMerge(t, "cpu order against stream order", [][]Event{
		{{TS: 5, CPU: 3, Arg3: 0}, {TS: 5, CPU: 3, Arg3: 1}},
		{{TS: 5, CPU: 1, Arg3: 2}, {TS: 5, CPU: 3, Arg3: 3}},
		{{TS: 4, CPU: 9, Arg3: 4}, {TS: 5, CPU: 1, Arg3: 5}},
	})
	checkMerge(t, "inverted single stream", [][]Event{
		{{TS: 9, CPU: 0, Arg3: 0}, {TS: 2, CPU: 0, Arg3: 1}, {TS: 2, CPU: 0, Arg3: 2}},
	})
	if got := MergeStreams([][][]Event{nil, {nil, {}}, {}}); got != nil {
		t.Fatalf("empty chunks merged to %v, want nil", got)
	}
	// Every chunk is in order; only the boundary after an empty chunk
	// is not, so a sortedness check that skips boundaries misses it.
	checkChunkedMerge(t, "inversion across a chunk boundary", [][][]Event{
		{{{TS: 5, CPU: 0, Arg3: 0}, {TS: 6, CPU: 0, Arg3: 1}}, {}, {{TS: 2, CPU: 0, Arg3: 2}, {TS: 3, CPU: 0, Arg3: 3}}},
		{{{TS: 4, CPU: 1, Arg3: 4}}, {{TS: 7, CPU: 1, Arg3: 5}}},
	})
}

// TestCollectorMatchesStableSort drives a collector with tiny rings, so
// events reach each CPU's stream both through Drain and through the
// final flush, and compares Finalize with a stable sort of the events
// in emission order: a single writer emits each CPU's events in ring
// order, so that is the stable sort of the drained concatenation.
func TestCollectorMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 2))
	for trial := 0; trial < 50; trial++ {
		cpus := 1 + rng.IntN(6)
		s := NewSession(Config{CPUs: cpus, SubBufs: 8, SubBufLen: 4})
		s.Start()
		c := NewCollector(s)
		var emitted []Event
		ts := int64(0)
		for i := 0; i < 200; i++ {
			ts += int64(rng.IntN(2))
			ev := Event{TS: ts, CPU: int32(rng.IntN(cpus)), ID: EvIRQEntry, Arg3: int64(i)}
			// Draining at least every 16 events keeps a 32-slot ring
			// from overflowing.
			if s.Emit(ev); i%16 == 15 || rng.IntN(8) == 0 {
				c.Drain()
			}
			emitted = append(emitted, ev)
		}
		tr := c.Finalize()
		if tr.Lost != 0 {
			t.Fatalf("trial %d: lost %d events; the rings must hold them all", trial, tr.Lost)
		}
		if want := stableOracle([][]Event{emitted}); !reflect.DeepEqual(tr.Events, want) {
			t.Fatalf("trial %d: Finalize differs from the stable sort of emission order", trial)
		}
	}
}

// ringContents returns what r holds, in ring order, without consuming
// it; r must be a quiesced Discard ring.
func ringContents(r *Ring) []Event {
	var out []Event
	for pos := r.readPos.Load(); pos < r.writePos.Load(); pos++ {
		out = append(out, r.slot(pos))
	}
	return out
}

// TestCollectConcurrentWriters races several writers on each CPU, half
// of them counting time down, so no ring is in time order and every
// stream takes the per-stream fix-up sort. Collect must still equal the
// stable sort of the rings' concatenation, read before Collect.
func TestCollectConcurrentWriters(t *testing.T) {
	const cpus, writers, perWriter = 3, 4, 500
	s := NewSession(Config{CPUs: cpus, SubBufs: 8, SubBufLen: 1024})
	s.Start()
	var wg sync.WaitGroup
	for w := 0; w < cpus*writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ts := int64(i / 3)
				if w%2 == 1 {
					ts = int64((perWriter - i) / 3)
				}
				s.Emit(Event{TS: ts, CPU: int32(w % cpus), ID: EvIRQEntry, Arg1: int64(w), Arg2: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	var rings [][]Event
	for _, r := range s.rings {
		rings = append(rings, ringContents(r))
	}
	tr := s.Collect()
	if tr.Lost != 0 || len(tr.Events) != cpus*writers*perWriter {
		t.Fatalf("collected %d events, lost %d; want %d, none lost", len(tr.Events), tr.Lost, cpus*writers*perWriter)
	}
	if want := stableOracle(rings); !reflect.DeepEqual(tr.Events, want) {
		t.Fatal("Collect differs from the stable sort of the rings' concatenation")
	}
}
