package trace

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Mode selects the ring buffer's behaviour when full.
type Mode int

const (
	// Discard drops new events when the buffer is full (LTTng's
	// "discard" mode); the Lost counter records how many.
	Discard Mode = iota
	// Overwrite keeps the newest events, overwriting the oldest
	// (LTTng's flight-recorder mode). Reading requires the writer side
	// to be quiesced (Stop), as in an LTTng snapshot.
	Overwrite
)

// Ring is a lock-free single-ring event buffer in the style of an LTTng
// per-CPU channel: storage is divided into sub-buffers; writers reserve a
// slot with an atomic operation, fill it, then commit it; the consumer
// takes only fully committed sub-buffers. Multiple writers may write
// concurrently; one consumer may take sub-buffers concurrently in Discard
// mode.
//
// A sub-buffer's storage is allocated by the first write into it and
// handed to the consumer whole when it is taken: the ring keeps no
// reference to a taken sub-buffer, and the next lap's first writer
// allocates a fresh one. A ring that records little therefore costs
// little, and no event is copied between the ring and the consumer.
type Ring struct {
	mode      Mode
	subBufLen int                       // slots per sub-buffer (power of two)
	nSubBufs  int                       // number of sub-buffers (power of two)
	subShift  uint                      // log2(subBufLen)
	bufs      []atomic.Pointer[[]Event] // per sub-buffer; nil until first written
	commit    []atomic.Uint64           // committed slots per sub-buffer
	writePos  atomic.Uint64             // next slot sequence number to reserve
	readPos   atomic.Uint64             // first slot sequence number not yet consumed
	lost      atomic.Uint64
	stopped   atomic.Bool
}

// ringGeometry validates a ring's sub-buffer geometry, returning an
// ErrLimit-family error when it is not a pair of positive powers of
// two. Shared by NewRing's panic and Config.Validate's error path.
func ringGeometry(nSubBufs, subBufLen int) error {
	if nSubBufs <= 0 || subBufLen <= 0 || nSubBufs&(nSubBufs-1) != 0 || subBufLen&(subBufLen-1) != 0 {
		return limitf("trace: ring geometry must be powers of two, got %d x %d", nSubBufs, subBufLen)
	}
	return nil
}

// NewRing creates a ring with nSubBufs sub-buffers of subBufLen slots
// each. Both must be powers of two. Like NewSession, the panic reports
// a programming error — ring geometry never comes from file input;
// untrusted configurations go through Config.Validate first. No
// sub-buffer storage is allocated until it is written.
func NewRing(nSubBufs, subBufLen int, mode Mode) *Ring {
	if err := ringGeometry(nSubBufs, subBufLen); err != nil {
		panic(err)
	}
	return &Ring{
		mode:      mode,
		subBufLen: subBufLen,
		nSubBufs:  nSubBufs,
		subShift:  uint(bits.TrailingZeros(uint(subBufLen))),
		bufs:      make([]atomic.Pointer[[]Event], nSubBufs),
		commit:    make([]atomic.Uint64, nSubBufs),
	}
}

// Cap returns the total number of slots.
func (r *Ring) Cap() int { return r.nSubBufs * r.subBufLen }

// Lost returns the number of events dropped in Discard mode.
func (r *Ring) Lost() uint64 { return r.lost.Load() }

// Stop quiesces the ring: subsequent writes are dropped (counted as
// lost). Required before Snapshot in Overwrite mode and before TakeRest.
func (r *Ring) Stop() { r.stopped.Store(true) }

// subBuf returns the index of the sub-buffer holding slot pos.
func (r *Ring) subBuf(pos uint64) uint64 { return (pos >> r.subShift) & uint64(r.nSubBufs-1) }

// slot returns the storage of slot pos, which must have been written.
func (r *Ring) slot(pos uint64) Event {
	return (*r.bufs[r.subBuf(pos)].Load())[pos&uint64(r.subBufLen-1)]
}

// Write records ev. It reports whether the event was stored. In Discard
// mode a full buffer drops the event; in Overwrite mode the oldest
// sub-buffer's data is overwritten instead.
func (r *Ring) Write(ev Event) bool {
	if r.stopped.Load() {
		r.lost.Add(1)
		return false
	}
	var pos uint64
	if r.mode == Overwrite {
		pos = r.writePos.Add(1) - 1
	} else {
		for {
			pos = r.writePos.Load()
			if pos-r.readPos.Load() >= uint64(r.Cap()) {
				r.lost.Add(1)
				return false
			}
			if r.writePos.CompareAndSwap(pos, pos+1) {
				break
			}
		}
	}
	sb := r.subBuf(pos)
	buf := r.bufs[sb].Load()
	if buf == nil {
		buf = r.install(sb)
	}
	(*buf)[pos&uint64(r.subBufLen-1)] = ev
	r.commit[sb].Add(1)
	return true
}

// install allocates sub-buffer sb's storage on its first write. Writers
// racing into the same empty sub-buffer agree on one storage through the
// compare-and-swap; the losers' allocations are dropped.
func (r *Ring) install(sb uint64) *[]Event {
	fresh := make([]Event, r.subBufLen)
	if r.bufs[sb].CompareAndSwap(nil, &fresh) {
		return &fresh
	}
	return r.bufs[sb].Load()
}

// takeSubBuf hands the oldest sub-buffer to the caller when every slot of
// it is committed. The ring forgets the storage before the release store
// of readPos, so the writers the release admits into that sub-buffer's
// next lap install fresh storage and never touch what was taken.
func (r *Ring) takeSubBuf() ([]Event, bool) {
	read := r.readPos.Load()
	if r.writePos.Load() < read+uint64(r.subBufLen) {
		return nil, false // oldest sub-buffer not yet fully reserved
	}
	sb := r.subBuf(read)
	// In Discard mode commit[sb] counts exactly the commits since the
	// consumer last released this sub-buffer, because writers cannot lap
	// the consumer.
	if r.commit[sb].Load() < uint64(r.subBufLen) {
		return nil, false // some slot still being written
	}
	buf := r.bufs[sb].Swap(nil)
	r.commit[sb].Store(0)
	r.readPos.Store(read + uint64(r.subBufLen))
	return *buf, true
}

// Take appends every fully committed sub-buffer to dst, oldest first,
// and returns the extended list. Ownership of each sub-buffer passes to
// the caller: the ring never writes into it again. Only valid in Discard
// mode; Overwrite readers use Snapshot after Stop.
func (r *Ring) Take(dst [][]Event) [][]Event {
	if r.mode != Discard {
		panic("trace: Take requires Discard mode")
	}
	for {
		buf, ok := r.takeSubBuf()
		if !ok {
			return dst
		}
		dst = append(dst, buf)
	}
}

// TakeRest appends everything the stopped ring still holds to dst, oldest
// first: the full sub-buffers as Take would, then the partially filled
// current one, cut to its written length, mirroring lttng stop && lttng
// destroy flushing partial sub-buffers. Ownership passes as with Take.
// An Overwrite ring appends its Snapshot as one chunk. The ring must be
// stopped and every Write to it returned.
func (r *Ring) TakeRest(dst [][]Event) [][]Event {
	if !r.stopped.Load() {
		panic("trace: TakeRest before Stop")
	}
	if r.mode == Overwrite {
		return append(dst, r.Snapshot(nil))
	}
	dst = r.Take(dst)
	read, write := r.readPos.Load(), r.writePos.Load()
	if read == write {
		return dst
	}
	// With every write committed, Take stops only short of a full
	// sub-buffer, so the rest lies in the one sub-buffer starting at read.
	buf := r.bufs[r.subBuf(read)].Swap(nil)
	r.readPos.Store(write)
	return append(dst, (*buf)[:write-read])
}

// Snapshot returns the events still resident in an Overwrite-mode ring,
// oldest first. The ring must be stopped.
func (r *Ring) Snapshot(dst []Event) []Event {
	if !r.stopped.Load() {
		panic("trace: Snapshot before Stop")
	}
	write := r.writePos.Load()
	n := uint64(r.Cap())
	start := uint64(0)
	if write > n {
		// The oldest sub-buffer may be partially overwritten; skip to
		// the next sub-buffer boundary to return only intact records.
		start = write - n
		rem := start % uint64(r.subBufLen)
		if rem != 0 {
			start += uint64(r.subBufLen) - rem
		}
	}
	for pos := start; pos < write; pos++ {
		dst = append(dst, r.slot(pos))
	}
	return dst
}

// MutexRing is a simple lock-guarded ring used as the baseline in the
// lock-free-vs-mutex ablation benchmark. Its Write has the semantics of a
// Discard-mode Ring's; Drain copies everything buffered out.
type MutexRing struct {
	// mu is the innermost lock of the "trace" hierarchy (level 2):
	// held only across one Write or Drain, with no other lock below.
	//noisevet:lockrank trace 2
	mu    sync.Mutex
	buf   []Event
	lost  uint64
	limit int
}

// NewMutexRing creates a mutex-guarded ring holding at most capSlots
// events.
func NewMutexRing(capSlots int) *MutexRing {
	return &MutexRing{limit: capSlots}
}

// Write appends ev, dropping it if the ring is full.
func (m *MutexRing) Write(ev Event) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.buf) >= m.limit {
		m.lost++
		return false
	}
	m.buf = append(m.buf, ev)
	return true
}

// Drain removes and returns all buffered events.
func (m *MutexRing) Drain(dst []Event) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst = append(dst, m.buf...)
	m.buf = m.buf[:0]
	return dst
}

// Lost returns the dropped-event count.
func (m *MutexRing) Lost() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lost
}
