package trace

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
)

// ErrCancelled is the sentinel wrapped by ReadParallel when its context
// is cancelled or times out mid-read. The returned error also wraps the
// context's own error, so callers may test either errors.Is(err,
// trace.ErrCancelled) or errors.Is(err, context.DeadlineExceeded).
var ErrCancelled = errors.New("trace: read cancelled")

// cancelled wraps a context error in the ErrCancelled family, outlined
// so the parallel readers' hot bodies perform no formatting.
//
//noisevet:coldpath
func cancelled(ctxErr error) error {
	return fmt.Errorf("%w: %w", ErrCancelled, ctxErr)
}

// headerSize is the fixed prefix of the LTTNOISE format: magic plus the
// version/cpus/lost/count header, preceding the event section.
const headerSize = 8 + 24

// Byte offsets of the fixed header fields, used to report where
// validation failed.
const (
	offVersion = 8
	offCPUs    = 12
	offCount   = 24
)

// sizeHint returns the number of bytes remaining in r, or -1 when r
// cannot tell. It inspects r without consuming anything: in-memory
// readers report their unread length, seekable readers (files, section
// readers) are measured with a seek-and-restore. A *bufio.Reader hides
// its underlying source, so it always reports unknown — callers that
// want header-vs-size validation must measure before wrapping.
func sizeHint(r io.Reader) int64 {
	if _, ok := r.(*bufio.Reader); ok {
		return -1
	}
	if l, ok := r.(interface{ Len() int }); ok {
		return int64(l.Len())
	}
	if s, ok := r.(io.Seeker); ok {
		cur, err := s.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		end, err := s.Seek(0, io.SeekEnd)
		if err != nil {
			return -1
		}
		if _, err := s.Seek(cur, io.SeekStart); err != nil {
			return -1
		}
		return end - cur
	}
	return -1
}

// validateHeader checks every field of a fixed-format header against
// the format limits and, when the total input size is known (limit >=
// 0, counted from the start of the magic), against the bytes that
// actually follow. Nothing downstream may allocate based on a header
// field that has not passed this gate.
func validateHeader(version, cpus uint32, count uint64, limit int64) error {
	if version != 1 && version != FormatVersion {
		return corruptf(offVersion, nil, "trace: unsupported format version %d", version)
	}
	if cpus == 0 {
		return corruptf(offCPUs, nil, "trace: header declares zero CPUs")
	}
	if cpus > MaxCPUs {
		return limitf("trace: header declares %d CPUs, format maximum is %d", cpus, MaxCPUs)
	}
	// Overflow gate: beyond this, count*EventSize does not fit in int64
	// and no real file can hold the events anyway.
	if count > (math.MaxInt64-headerSize)/EventSize {
		return corruptf(offCount, nil, "trace: implausible event count %d", count)
	}
	if limit >= 0 {
		if need := int64(headerSize) + int64(count)*EventSize; need > limit {
			return corruptf(offCount, nil,
				"trace: header promises %d events (%d bytes) but only %d bytes follow the header",
				count, need-headerSize, limit-headerSize)
		}
	}
	return nil
}

// Decoder streams events out of a fixed-format (LTTNOISE) trace without
// materialising the whole event section in memory. It is the building
// block of the parallel analysis pipeline: the caller pulls batches with
// Next, routes them into per-CPU sub-streams, and finally reads the
// process table with Procs once every event has been consumed.
//
// A Decoder reads the uncompressed format only; use ReadAny for
// compressed traces (whose varint encoding forces sequential decoding
// of the whole stream anyway).
type Decoder struct {
	br      *bufio.Reader
	version uint32
	cpus    int
	lost    uint64
	count   uint64 // events promised by the header
	read    uint64 // events decoded so far
	sized   bool   // header count was validated against the input size
	buf     []byte // reused batch-read staging buffer (Next)
	procs   []ProcInfo
	gotProc bool
	broken  error // set when a failed Reset left the stream position undefined
}

// nextBatchEvents is how many wire records Next stages per bulk read:
// 512 × EventSize = 20 KiB, small enough to live in L1/L2 yet large
// enough that the bufio copy and call overhead amortise to noise.
const nextBatchEvents = 512

// NewDecoder reads the trace header from r and returns a streaming
// decoder positioned at the first event. The header is fully validated
// before anything is allocated from it: version, CPU count (within
// [1, MaxCPUs]) and — when r's size can be determined without consuming
// it — the promised event count against the bytes that actually follow.
func NewDecoder(r io.Reader) (*Decoder, error) {
	limit := sizeHint(r)
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	return newDecoder(br, limit)
}

// newDecoder parses and validates the header. limit is the total input
// size in bytes counted from the magic, or -1 when unknown.
func newDecoder(br *bufio.Reader, limit int64) (*Decoder, error) {
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, wrapRead(0, err, "trace: reading magic")
	}
	if m != magic {
		return nil, ErrBadMagic
	}
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, wrapRead(8, err, "trace: reading header")
	}
	version := binary.LittleEndian.Uint32(hdr[0:])
	cpus := binary.LittleEndian.Uint32(hdr[4:])
	count := binary.LittleEndian.Uint64(hdr[16:])
	if err := validateHeader(version, cpus, count, limit); err != nil {
		return nil, err
	}
	return &Decoder{
		br:      br,
		version: version,
		cpus:    int(cpus),
		lost:    binary.LittleEndian.Uint64(hdr[8:]),
		count:   count,
		sized:   limit >= 0,
	}, nil
}

// Reset re-arms the decoder to read a new trace from r, reusing the
// buffered reader and the batch staging buffer of the previous stream.
// It is the streaming-session-reuse primitive for long-lived
// connections that carry many traces back to back (the noised native
// protocol): header validation is identical to NewDecoder's, and on a
// validation error the decoder is left unusable until a Reset
// succeeds. If r is itself a *bufio.Reader it is adopted directly;
// otherwise the previous buffer is rebound to r, so a connection's
// worth of traces costs one buffer allocation total.
func (d *Decoder) Reset(r io.Reader) error {
	limit := sizeHint(r)
	br, ok := r.(*bufio.Reader)
	switch {
	case ok:
		// Adopt the caller's buffer (it may hold sniffed bytes).
	case d.br != nil:
		br = d.br
		br.Reset(r)
	default:
		br = bufio.NewReaderSize(r, 1<<16)
	}
	buf := d.buf
	nd, err := newDecoder(br, limit)
	if err != nil {
		// The buffered reader has already been rebound to r and some of
		// its bytes consumed, so the previous header state no longer
		// describes what the next read would return. A decoder that kept
		// an unfinished previous trace's counts here would decode the
		// NEW stream's bytes as the OLD trace's events — poison it
		// instead, so every read until a successful Reset reports the
		// failure rather than mixing two streams.
		d.broken = fmt.Errorf("trace: decoder unusable after failed Reset: %w", err)
		return err
	}
	*d = *nd
	d.buf = buf
	return nil
}

// CPUs returns the CPU count recorded in the trace header.
func (d *Decoder) CPUs() int { return d.cpus }

// Lost returns the lost-event counter recorded in the trace header.
func (d *Decoder) Lost() uint64 { return d.lost }

// EventCount returns the number of events the header promises.
func (d *Decoder) EventCount() uint64 { return d.count }

// Sized reports whether the header's event count was cross-checked
// against the input size at construction. When false (the input was a
// pipe or an opaque stream), the count is a claim, not a fact — readers
// should grow as they decode rather than preallocate it.
func (d *Decoder) Sized() bool { return d.sized }

// Prealloc returns how many events a reader may size buffers for
// before decoding them: the header's count when Sized, otherwise the
// count capped at maxPrealloc, since an unsized stream's count is only
// a claim that a crafted header can inflate at will.
func (d *Decoder) Prealloc() uint64 {
	if !d.sized && d.count > maxPrealloc {
		return maxPrealloc
	}
	return d.count
}

// Remaining returns the number of events not yet decoded.
func (d *Decoder) Remaining() uint64 { return d.count - d.read }

// Next decodes up to len(dst) events into dst and returns how many were
// filled. It returns io.EOF (with n == 0) once the event section is
// exhausted; any other error means the stream is truncated (ErrCorrupt)
// or failed to read.
//
// Records are staged through one bulk ReadFull per nextBatchEvents
// rather than one per record: the per-event cost is then a 40-byte
// decode, not a reader call, whose fixed cost would otherwise dominate
// a record this small.
//
//noisevet:hotpath
func (d *Decoder) Next(dst []Event) (int, error) {
	if d.broken != nil {
		return 0, d.broken
	}
	if d.read >= d.count {
		return 0, io.EOF
	}
	n := uint64(len(dst))
	if rem := d.count - d.read; n > rem {
		n = rem
	}
	if d.buf == nil {
		d.buf = make([]byte, nextBatchEvents*EventSize)
	}
	for filled := uint64(0); filled < n; {
		b := n - filled
		if b > nextBatchEvents {
			b = nextBatchEvents
		}
		m, err := io.ReadFull(d.br, d.buf[:b*EventSize])
		full := uint64(DecodeBatch(d.buf[:m], dst[filled:]))
		if err != nil {
			// Equivalent to the per-record loop: the failing record is
			// the first incomplete one, and a stream ending exactly on a
			// record boundary reads as io.EOF there, not UnexpectedEOF.
			got := filled + full
			if err == io.ErrUnexpectedEOF && uint64(m) == full*EventSize {
				err = io.EOF
			}
			off := int64(headerSize) + int64(d.read+got)*EventSize
			return int(got), wrapRead(off, err, "trace: reading event %d of %d", d.read+got, d.count)
		}
		filled += b
	}
	d.read += n
	return int(n), nil
}

// Skip discards every event record not yet decoded, leaving the
// decoder positioned at the process table. A budget-truncated streaming
// analysis uses it to reach Procs without decoding events it will not
// ingest; the records stream through a fixed buffer, so skipping costs
// I/O but no memory. A no-op when the event section is exhausted.
func (d *Decoder) Skip() error {
	if d.broken != nil {
		return d.broken
	}
	rem := d.count - d.read
	if rem == 0 {
		return nil
	}
	if _, err := io.CopyN(io.Discard, d.br, int64(rem)*EventSize); err != nil {
		off := int64(headerSize) + int64(d.read)*EventSize
		return wrapRead(off, err, "trace: skipping %d events", rem)
	}
	d.read = d.count
	return nil
}

// Procs reads the process table that follows the event section. It must
// be called only after Next has returned io.EOF or Skip has discarded
// the remainder; version-1 traces carry no table and yield nil.
func (d *Decoder) Procs() ([]ProcInfo, error) {
	if d.broken != nil {
		return nil, d.broken
	}
	if d.read < d.count {
		return nil, fmt.Errorf("trace: process table read with %d events still pending", d.count-d.read)
	}
	if d.gotProc {
		return d.procs, nil
	}
	if d.version >= 2 {
		procs, err := readProcs(d.br, int64(headerSize)+int64(d.count)*EventSize)
		if err != nil {
			return nil, err
		}
		d.procs = procs
	}
	d.gotProc = true
	return d.procs, nil
}

// DecodeEvent unpacks one wire record from the head of b, which must
// hold at least EventSize bytes.
//
//noisevet:hotpath
func DecodeEvent(b []byte) Event {
	b = b[:EventSize]
	return Event{
		TS:   int64(binary.LittleEndian.Uint64(b[0:])),
		CPU:  int32(binary.LittleEndian.Uint32(b[8:])),
		ID:   ID(binary.LittleEndian.Uint16(b[12:])),
		Arg1: int64(binary.LittleEndian.Uint64(b[16:])),
		Arg2: int64(binary.LittleEndian.Uint64(b[24:])),
		Arg3: int64(binary.LittleEndian.Uint64(b[32:])),
	}
}

// DecodeBatch bulk-decodes wire records from the head of b into dst and
// returns how many it filled: min(len(b)/EventSize, len(dst)). Trailing
// bytes short of a full record are ignored — the caller decides whether
// they are a truncation error or the next read's prefix. One call
// replaces a per-record DecodeEvent loop; the bounds checks and the
// slice-header arithmetic are hoisted out of the per-event work, which
// is what lets the streaming and parallel readers decode at memory
// speed rather than at the speed of one function call per record.
//
//noisevet:hotpath
func DecodeBatch(b []byte, dst []Event) int {
	n := len(b) / EventSize
	if n > len(dst) {
		n = len(dst)
	}
	if n == 0 {
		return 0
	}
	b = b[:n*EventSize]
	dst = dst[:n]
	if eventRawCompatible {
		// One memmove: the wire layout IS the in-memory layout here
		// (verified at init; see decode_fast.go).
		decodeBatchRaw(b, dst, n)
		return n
	}
	for i := range dst {
		r := b[i*EventSize : i*EventSize+EventSize : i*EventSize+EventSize]
		dst[i] = Event{
			TS:   int64(binary.LittleEndian.Uint64(r[0:])),
			CPU:  int32(binary.LittleEndian.Uint32(r[8:])),
			ID:   ID(binary.LittleEndian.Uint16(r[12:])),
			Arg1: int64(binary.LittleEndian.Uint64(r[16:])),
			Arg2: int64(binary.LittleEndian.Uint64(r[24:])),
			Arg3: int64(binary.LittleEndian.Uint64(r[32:])),
		}
	}
	return n
}

// RawTrace is random access to a fixed-format trace without decoding
// it: the validated header plus the byte layout of the event section.
// It exists for analyzers that want to scan the raw records themselves
// (RawTrace.Scan with DecodeBatch) instead of materialising a []Event
// first.
type RawTrace struct {
	ra      io.ReaderAt
	size    int64
	version uint32
	cpus    int
	lost    uint64
	count   uint64
}

// OpenRaw validates the header of a fixed-format trace held in a
// random-access byte source of the given total size. Like ReadParallel,
// the event count promised by the header is checked against the size
// (overflow-safe) before anything is allocated from it.
func OpenRaw(ra io.ReaderAt, size int64) (*RawTrace, error) {
	hr := io.NewSectionReader(ra, 0, size)
	d, err := newDecoder(bufio.NewReaderSize(hr, headerSize), size)
	if err != nil {
		return nil, err
	}
	return &RawTrace{
		ra: ra, size: size,
		version: d.version, cpus: d.CPUs(), lost: d.Lost(), count: d.EventCount(),
	}, nil
}

// CPUs returns the CPU count recorded in the trace header.
func (t *RawTrace) CPUs() int { return t.cpus }

// Lost returns the lost-event counter recorded in the trace header.
func (t *RawTrace) Lost() uint64 { return t.lost }

// EventCount returns the number of events the header promises.
func (t *RawTrace) EventCount() uint64 { return t.count }

// BytesReaderAt is an in-memory trace image. It satisfies io.ReaderAt
// like bytes.NewReader would, but RawTrace.Scan recognises it and hands
// out subslices directly instead of copying every chunk through a
// staging buffer — worth ~2× on the partition passes of AnalyzeRaw.
type BytesReaderAt []byte

// ReadAt implements io.ReaderAt over the in-memory image.
func (b BytesReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

// Scan reads the raw records [lo, hi) in large chunks and passes each
// chunk's bytes — always a whole number of EventSize records, starting
// at record `start` — to fn. The chunk slice is only valid during the
// callback. Concurrent Scans over disjoint ranges are safe when the
// underlying reader supports concurrent ReadAt (files and bytes.Readers
// do). A short read inside the validated event section reports
// ErrCorrupt: the file shrank after OpenRaw measured it.
//
//noisevet:hotpath
func (t *RawTrace) Scan(lo, hi uint64, fn func(start uint64, chunk []byte) error) error {
	if hi > t.count {
		hi = t.count
	}
	if lo >= hi {
		return nil
	}
	if img, ok := t.ra.(BytesReaderAt); ok {
		b := img[headerSize+int64(lo)*EventSize : headerSize+int64(hi)*EventSize]
		return fn(lo, b)
	}
	const chunk = 1 << 14 // events per read
	buf := make([]byte, chunk*EventSize)
	for i := lo; i < hi; {
		n := uint64(chunk)
		if rem := hi - i; n > rem {
			n = rem
		}
		b := buf[:n*EventSize]
		off := int64(headerSize) + int64(i)*EventSize
		if _, err := t.ra.ReadAt(b, off); err != nil {
			return wrapRead(off, err, "trace: reading events %d..%d of %d", i, i+n, t.count)
		}
		if err := fn(i, b); err != nil {
			return err
		}
		i += n
	}
	return nil
}

// Event decodes the single record at index i, which must be below
// EventCount.
//
//noisevet:hotpath
func (t *RawTrace) Event(i uint64) (Event, error) {
	if i >= t.count {
		return Event{}, errEventRange(i, t.count)
	}
	var rec [EventSize]byte
	off := int64(headerSize) + int64(i)*EventSize
	if _, err := t.ra.ReadAt(rec[:], off); err != nil {
		return Event{}, wrapRead(off, err, "trace: reading event %d of %d", i, t.count)
	}
	return DecodeEvent(rec[:]), nil
}

// errEventRange builds the out-of-range error for RawTrace.Event,
// outlined so the accessor's hot body performs no formatting.
//
//noisevet:coldpath
func errEventRange(i, count uint64) error {
	return fmt.Errorf("trace: event index %d out of range (%d events)", i, count)
}

// Procs reads the process table that follows the event section;
// version-1 traces carry no table and yield nil.
func (t *RawTrace) Procs() ([]ProcInfo, error) {
	if t.version < 2 {
		return nil, nil
	}
	off := int64(headerSize) + int64(t.count)*EventSize
	return readProcs(bufio.NewReaderSize(io.NewSectionReader(t.ra, off, t.size-off), 1<<16), off)
}

// ReadParallel decodes a fixed-format trace of the given total size from
// a random-access reader, splitting the fixed-width event section across
// workers (≤ 0 means GOMAXPROCS). The result is identical to Read on the
// same bytes: records are fixed-width, so each worker decodes a disjoint
// contiguous range directly into its slot of the shared event slice.
//
// Unlike Read on an opaque stream, the event count promised by the
// header is always validated against the file size before allocation,
// so a corrupt header cannot cause an implausible allocation.
//
// Cancelling ctx stops the decode at the next read chunk: every worker
// is joined before returning (no goroutine leaks) and the error wraps
// both ErrCancelled and ctx.Err().
//
//noisevet:hotpath
func ReadParallel(ctx context.Context, ra io.ReaderAt, size int64, workers int) (*Trace, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rt, err := OpenRaw(ra, size)
	if err != nil {
		return nil, err
	}
	// Safe: OpenRaw bounded count by size/EventSize.
	count := rt.count
	tr := &Trace{CPUs: rt.cpus, Lost: rt.lost, Events: make([]Event, count)}

	if workers > int(count/4096)+1 {
		workers = int(count/4096) + 1
	}
	per := count / uint64(workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		lo := uint64(w) * per
		hi := lo + per
		if w == workers-1 {
			hi = count
		}
		wg.Add(1)
		go func(w int, lo, hi uint64) {
			defer wg.Done()
			// Chunked reads decoded straight out of the buffer: far
			// fewer reader calls and bounds checks than a per-record
			// io.ReadFull loop.
			errs[w] = rt.Scan(lo, hi, func(start uint64, b []byte) error {
				if err := ctx.Err(); err != nil {
					return err
				}
				DecodeBatch(b, tr.Events[start:])
				return nil
			})
		}(w, lo, hi)
	}
	wg.Wait()
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, cancelled(ctxErr)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	procs, err := rt.Procs()
	if err != nil {
		return nil, err
	}
	tr.Procs = procs
	return tr, nil
}
