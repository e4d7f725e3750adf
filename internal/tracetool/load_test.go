package tracetool

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"osnoise/internal/trace"
)

// countdownCtx is a context whose Err turns context.Canceled after a
// fixed number of calls, so a test can cancel a load partway through
// without timing anything. It is not safe for concurrent use: only the
// sequential paths, which check it from one goroutine, get one.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}

// bigTrace is a trace far larger than one 64 KiB read, in both formats.
func bigTrace(t *testing.T) (fixed, compressed string, events int) {
	t.Helper()
	tr := &trace.Trace{CPUs: 2}
	for i := 0; i < 50_000; i++ {
		tr.Events = append(tr.Events, trace.Event{TS: int64(i) * 1000, CPU: int32(i % 2), ID: trace.EvIRQEntry, Arg1: int64(i)})
	}
	dir := t.TempDir()
	for _, f := range []struct {
		path *string
		name string
		enc  func(io.Writer, *trace.Trace) error
	}{
		{&fixed, "t.lttn", trace.Write},
		{&compressed, "t.lttnz", trace.WriteCompressed},
	} {
		var buf bytes.Buffer
		if err := f.enc(&buf, tr); err != nil {
			t.Fatal(err)
		}
		*f.path = filepath.Join(dir, f.name)
		if err := os.WriteFile(*f.path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return fixed, compressed, len(tr.Events)
}

// TestLoadCancelledMidDecode cancels Load after a few context checks on
// every path that decodes sequentially: a fixed trace with one worker,
// and a compressed trace, which decodes sequentially at any worker
// count. Each must stop with an error that maps to ExitCancelled, not
// decode the whole file. A context that stays live loads every event.
func TestLoadCancelledMidDecode(t *testing.T) {
	fixed, compressed, events := bigTrace(t)
	cases := []struct {
		name    string
		path    string
		workers int
	}{
		{"fixed/workers=1", fixed, 1},
		{"compressed/workers=1", compressed, 1},
		{"compressed/workers=4", compressed, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr, err := Load(&countdownCtx{Context: context.Background(), left: 3}, c.path, c.workers)
			if ExitCode(err) != ExitCancelled || !errors.Is(err, context.Canceled) || !errors.Is(err, trace.ErrCancelled) {
				n := -1
				if tr != nil {
					n = len(tr.Events)
				}
				t.Fatalf("Load = %d events, err %v; want a cancellation (exit %d)", n, err, ExitCancelled)
			}
			tr, err = Load(&countdownCtx{Context: context.Background(), left: 1 << 30}, c.path, c.workers)
			if err != nil || len(tr.Events) != events {
				t.Fatalf("live context: err %v, want all %d events", err, events)
			}
		})
	}
}

// TestLoadSequentialChecksSize pins that the sequential path still
// measures the file: a header promising more events than the file
// holds is rejected by the header's count-vs-size check, before any
// event is read, not by running out of bytes mid-decode.
func TestLoadSequentialChecksSize(t *testing.T) {
	fixed, _, events := bigTrace(t)
	data, err := os.ReadFile(fixed)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[24:32], uint64(events+1000))
	if err := os.WriteFile(fixed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(context.Background(), fixed, 1)
	if !trace.IsInputError(err) || !strings.Contains(err.Error(), "bytes follow the header") {
		t.Fatalf("err = %v, want the header's count-vs-size rejection", err)
	}
}
