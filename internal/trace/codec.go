package trace

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Binary trace format:
//
//	magic   [8]byte  "LTTNOISE"
//	version uint32   (currently 2)
//	cpus    uint32
//	lost    uint64
//	count   uint64   number of event records
//	events  count × EventSize bytes, little endian:
//	        ts int64, cpu int32, id uint16, pad uint16,
//	        arg1 int64, arg2 int64, arg3 int64
//	procs   uint32 count, then per process:
//	        pid int64, kind int32, name length uint32 + bytes
//
// The event section is fixed-width so a reader can seek and the encoded
// size is predictable (40 bytes/event); the process table (the metadata
// stream) follows at the end.

var magic = [8]byte{'L', 'T', 'T', 'N', 'O', 'I', 'S', 'E'}

// FormatVersion is the current trace file format version.
const FormatVersion = 2

// IsFixedFormat reports whether an 8-byte file prefix identifies the
// uncompressed fixed-width trace format — the one whose event section
// ReadParallel can split across workers.
func IsFixedFormat(head [8]byte) bool { return head == magic }

// maxPrealloc caps the speculative []Event preallocation when decoding
// a stream whose size cannot be determined (a pipe): the header's event
// count is then an unverified claim, and a crafted 32-byte input must
// not be able to demand an arbitrarily large allocation. Beyond the cap
// the readers grow as they decode.
const maxPrealloc = 1 << 18

// checkWritable validates a trace about to be encoded, mirroring the
// decode-time header validation so everything Write produces, Read
// accepts.
func checkWritable(tr *Trace) error {
	if tr.CPUs < 1 || tr.CPUs > MaxCPUs {
		return limitf("trace: cannot encode a trace with %d CPUs (want 1..%d)", tr.CPUs, MaxCPUs)
	}
	if len(tr.Procs) > MaxProcs {
		return limitf("trace: cannot encode %d process-table entries (maximum %d)", len(tr.Procs), MaxProcs)
	}
	for _, p := range tr.Procs {
		if len(p.Name) > MaxProcNameLen {
			return limitf("trace: cannot encode process name of %d bytes (maximum %d)", len(p.Name), MaxProcNameLen)
		}
	}
	return nil
}

// Write encodes tr to w.
func Write(w io.Writer, tr *Trace) error {
	if err := checkWritable(tr); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(tr.CPUs))
	binary.LittleEndian.PutUint64(hdr[8:], tr.Lost)
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(tr.Events)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [EventSize]byte
	for _, ev := range tr.Events {
		binary.LittleEndian.PutUint64(rec[0:], uint64(ev.TS))
		binary.LittleEndian.PutUint32(rec[8:], uint32(ev.CPU))
		binary.LittleEndian.PutUint16(rec[12:], uint16(ev.ID))
		binary.LittleEndian.PutUint16(rec[14:], 0)
		binary.LittleEndian.PutUint64(rec[16:], uint64(ev.Arg1))
		binary.LittleEndian.PutUint64(rec[24:], uint64(ev.Arg2))
		binary.LittleEndian.PutUint64(rec[32:], uint64(ev.Arg3))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	if err := writeProcs(bw, tr.Procs); err != nil {
		return err
	}
	return bw.Flush()
}

func writeProcs(w io.Writer, procs []ProcInfo) error {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(procs)))
	if _, err := w.Write(n[:]); err != nil {
		return err
	}
	for _, p := range procs {
		var hdr [16]byte
		binary.LittleEndian.PutUint64(hdr[0:], uint64(p.PID))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(p.Kind))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(len(p.Name)))
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, p.Name); err != nil {
			return err
		}
	}
	return nil
}

// readProcs parses the process table. base is the byte offset of the
// table within the input (-1 when unknown), used to report where a
// malformed entry sits.
func readProcs(r io.Reader, base int64) ([]ProcInfo, error) {
	off := func(rel int64) int64 {
		if base < 0 {
			return -1
		}
		return base + rel
	}
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return nil, wrapRead(off(0), err, "trace: reading process-table length")
	}
	count := binary.LittleEndian.Uint32(n[:])
	if count > MaxProcs {
		return nil, limitf("trace: process table declares %d entries, maximum is %d", count, MaxProcs)
	}
	pos := int64(4)
	// The entries are at least 16 bytes each; cap the preallocation so a
	// corrupt length cannot demand more memory than the stream can back.
	alloc := count
	if alloc > maxPrealloc {
		alloc = maxPrealloc
	}
	procs := make([]ProcInfo, 0, alloc)
	for i := uint32(0); i < count; i++ {
		var hdr [16]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, wrapRead(off(pos), err, "trace: reading process entry %d of %d", i, count)
		}
		nameLen := binary.LittleEndian.Uint32(hdr[12:])
		if nameLen > MaxProcNameLen {
			return nil, limitf("trace: process %d declares a %d-byte name, maximum is %d", i, nameLen, MaxProcNameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, wrapRead(off(pos+16), err, "trace: reading process %d name", i)
		}
		pos += 16 + int64(nameLen)
		procs = append(procs, ProcInfo{
			PID:  int64(binary.LittleEndian.Uint64(hdr[0:])),
			Kind: ProcKind(binary.LittleEndian.Uint32(hdr[8:])),
			Name: string(name),
		})
	}
	return procs, nil
}

// Read decodes a trace from r. It is the sequential counterpart of
// ReadParallel, implemented on the streaming Decoder. When r's size can
// be determined (a file, an in-memory reader), the header's event count
// is validated against it before allocating; otherwise the reader grows
// as it decodes, so a corrupt header cannot demand an implausible
// allocation either way.
func Read(r io.Reader) (*Trace, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return readDecoded(d)
}

// readDecoded drains a decoder into a materialised Trace.
func readDecoded(d *Decoder) (*Trace, error) {
	tr := &Trace{CPUs: d.CPUs(), Lost: d.Lost()}
	// An unverifiable header claim starts capped and grows as bytes arrive.
	tr.Events = make([]Event, 0, d.Prealloc())
	batch := make([]Event, 4096)
	for {
		n, err := d.Next(batch)
		tr.Events = append(tr.Events, batch[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	procs, err := d.Procs()
	if err != nil {
		return nil, err
	}
	tr.Procs = procs
	return tr, nil
}
