package trace

import (
	"slices"
	"sync"
	"testing"
)

func TestRingSingleWriterRoundTrip(t *testing.T) {
	r := NewRing(4, 8, Discard)
	for i := 0; i < 16; i++ {
		if !r.Write(Event{TS: int64(i), ID: EvIRQEntry}) {
			t.Fatalf("write %d rejected", i)
		}
	}
	got := slices.Concat(r.Take(nil)...)
	if len(got) != 16 {
		t.Fatalf("drained %d events, want 16", len(got))
	}
	for i, ev := range got {
		if ev.TS != int64(i) {
			t.Fatalf("event %d has TS %d", i, ev.TS)
		}
	}
}

func TestRingDiscardWhenFull(t *testing.T) {
	r := NewRing(2, 4, Discard) // capacity 8
	for i := 0; i < 8; i++ {
		if !r.Write(Event{TS: int64(i)}) {
			t.Fatalf("write %d rejected before full", i)
		}
	}
	if r.Write(Event{TS: 99}) {
		t.Fatal("write accepted into full ring")
	}
	if r.Lost() != 1 {
		t.Fatalf("lost %d, want 1", r.Lost())
	}
	// Draining makes room again.
	got := slices.Concat(r.Take(nil)...)
	if len(got) != 8 {
		t.Fatalf("drained %d", len(got))
	}
	if !r.Write(Event{TS: 100}) {
		t.Fatal("write rejected after drain")
	}
}

func TestRingPartialSubBufNotReadable(t *testing.T) {
	r := NewRing(2, 4, Discard)
	for i := 0; i < 3; i++ { // less than one sub-buffer
		r.Write(Event{TS: int64(i)})
	}
	if got := r.Take(nil); len(got) != 0 {
		t.Fatalf("drained %d sub-buffers from partial sub-buffer", len(got))
	}
	r.Stop()
	got := slices.Concat(r.TakeRest(nil)...)
	if len(got) != 3 {
		t.Fatalf("flush returned %d events, want 3", len(got))
	}
}

// TestRingFlushBeforeStopPanics checks that flushing a ring, taking what
// it still holds with TakeRest, panics before Stop.
func TestRingFlushBeforeStopPanics(t *testing.T) {
	r := NewRing(2, 4, Discard)
	defer func() {
		if recover() == nil {
			t.Fatal("TakeRest before Stop did not panic")
		}
	}()
	r.TakeRest(nil)
}

func TestRingBadGeometryPanics(t *testing.T) {
	for _, geom := range [][2]int{{3, 4}, {4, 3}, {0, 4}, {4, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v did not panic", geom)
				}
			}()
			NewRing(geom[0], geom[1], Discard)
		}()
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	r := NewRing(4, 4, Overwrite) // capacity 16
	for i := 0; i < 40; i++ {
		if !r.Write(Event{TS: int64(i)}) {
			t.Fatalf("overwrite write %d rejected", i)
		}
	}
	r.Stop()
	got := r.Snapshot(nil)
	if len(got) == 0 || len(got) > 16 {
		t.Fatalf("snapshot returned %d events", len(got))
	}
	// The newest event must be present and order preserved.
	if got[len(got)-1].TS != 39 {
		t.Fatalf("last snapshot event TS %d, want 39", got[len(got)-1].TS)
	}
	for i := 1; i < len(got); i++ {
		if got[i].TS != got[i-1].TS+1 {
			t.Fatalf("snapshot not contiguous at %d: %d -> %d", i, got[i-1].TS, got[i].TS)
		}
	}
}

func TestRingOverwriteSnapshotAligned(t *testing.T) {
	r := NewRing(4, 4, Overwrite)
	for i := 0; i < 18; i++ { // 2 past capacity: oldest sub-buffer dirty
		r.Write(Event{TS: int64(i)})
	}
	r.Stop()
	got := r.Snapshot(nil)
	// Events 0,1 overwritten by 16,17; sub-buffer 0 contains 16,17,2,3 —
	// partially stale, so the snapshot must start at sub-buffer 1 (TS 4).
	if got[0].TS != 4 {
		t.Fatalf("snapshot starts at TS %d, want 4", got[0].TS)
	}
	if got[len(got)-1].TS != 17 {
		t.Fatalf("snapshot ends at TS %d, want 17", got[len(got)-1].TS)
	}
}

func TestRingWriteAfterStopDropped(t *testing.T) {
	r := NewRing(2, 4, Discard)
	r.Stop()
	if r.Write(Event{}) {
		t.Fatal("write accepted after stop")
	}
	if r.Lost() != 1 {
		t.Fatalf("lost %d", r.Lost())
	}
}

// Concurrency property: with W writers racing a concurrent reader, every
// event is either drained exactly once or counted lost; per-writer order
// is preserved in the drained stream.
func TestRingConcurrentWritersAndReader(t *testing.T) {
	const writers = 8
	const perWriter = 20000
	r := NewRing(16, 256, Discard)
	doneWriting := make(chan struct{})

	var taken [][]Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			taken = r.Take(taken)
			select {
			case <-doneWriting:
				taken = r.Take(taken)
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Arg1 encodes writer, Arg2 the per-writer sequence.
				r.Write(Event{TS: int64(i), Arg1: int64(w), Arg2: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	close(doneWriting)
	<-done

	// Flush the tail.
	r.Stop()
	collected := slices.Concat(r.TakeRest(taken)...)

	if uint64(len(collected))+r.Lost() != writers*perWriter {
		t.Fatalf("collected %d + lost %d != %d", len(collected), r.Lost(), writers*perWriter)
	}
	// Per-writer sequence must be strictly increasing.
	lastSeq := make([]int64, writers)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	for _, ev := range collected {
		w := ev.Arg1
		if ev.Arg2 <= lastSeq[w] {
			t.Fatalf("writer %d sequence went %d -> %d", w, lastSeq[w], ev.Arg2)
		}
		lastSeq[w] = ev.Arg2
	}
}

func TestMutexRing(t *testing.T) {
	m := NewMutexRing(4)
	for i := 0; i < 4; i++ {
		if !m.Write(Event{TS: int64(i)}) {
			t.Fatalf("write %d rejected", i)
		}
	}
	if m.Write(Event{TS: 5}) {
		t.Fatal("write accepted when full")
	}
	if m.Lost() != 1 {
		t.Fatalf("lost %d", m.Lost())
	}
	got := m.Drain(nil)
	if len(got) != 4 {
		t.Fatalf("drained %d", len(got))
	}
}

// TestRingTakeOwnership races writers against a consumer that takes
// sub-buffers from a small ring, keeping a copy of each made when it was
// taken. Every event must be taken exactly once or counted lost, each
// writer's order must be kept, and no taken sub-buffer may change
// afterwards: the ring must never write into storage it handed over.
func TestRingTakeOwnership(t *testing.T) {
	const writers, perWriter = 4, 20000
	r := NewRing(4, 64, Discard)
	var taken, copies [][]Event
	keep := func(from int) {
		for _, b := range taken[from:] {
			copies = append(copies, slices.Clone(b))
		}
	}
	doneWriting := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			n := len(taken)
			taken = r.Take(taken)
			keep(n)
			select {
			case <-doneWriting:
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Write(Event{TS: int64(i), Arg1: int64(w), Arg2: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	close(doneWriting)
	<-done
	r.Stop()
	n := len(taken)
	taken = r.TakeRest(taken)
	keep(n)

	for i := range taken {
		if !slices.Equal(taken[i], copies[i]) {
			t.Fatalf("sub-buffer %d of %d changed after it was taken", i, len(taken))
		}
	}
	seen := make([][]bool, writers)
	last := make([]int64, writers)
	for w := range seen {
		seen[w], last[w] = make([]bool, perWriter), -1
	}
	got := 0
	for _, b := range taken {
		for _, ev := range b {
			w, i := ev.Arg1, ev.Arg2
			if seen[w][i] {
				t.Fatalf("writer %d event %d taken twice", w, i)
			}
			if i <= last[w] {
				t.Fatalf("writer %d sequence went %d -> %d", w, last[w], i)
			}
			seen[w][i], last[w] = true, i
			got++
		}
	}
	if uint64(got)+r.Lost() != writers*perWriter {
		t.Fatalf("taken %d + lost %d != %d", got, r.Lost(), writers*perWriter)
	}
}
