package tracetool

import (
	"context"
	"fmt"
	"os"

	"osnoise/internal/trace"
)

// Load reads a trace file in any supported format, decoding the
// fixed-width event section across up to `workers` goroutines when the
// file allows random access (≤ 0 means GOMAXPROCS, 1 forces the
// sequential reader). Compressed traces decode sequentially regardless:
// their varint encoding has no record boundaries to split on.
// Cancelling ctx aborts any decode, parallel or sequential, at its next
// read with an error that maps to ExitCancelled.
func Load(ctx context.Context, path string, workers int) (*trace.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	if workers != 1 {
		var head [8]byte
		if n, err := f.ReadAt(head[:], 0); err == nil && n == 8 && trace.IsFixedFormat(head) {
			st, err := f.Stat()
			if err == nil && st.Mode().IsRegular() {
				tr, err := trace.ReadParallel(ctx, f, st.Size(), workers)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", path, err)
				}
				return tr, nil
			}
		}
		if _, err := f.Seek(0, 0); err != nil {
			return nil, err
		}
	}
	tr, err := trace.ReadAny(ctxReader{ctx, f})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// ctxReader reads f until ctx is done, so a sequential decode stops at
// its next read once ctx is cancelled. Seek passes through, so the
// decoder still measures the file's size and checks the header's event
// count against it.
type ctxReader struct {
	ctx context.Context
	f   *os.File
}

func (r ctxReader) Read(p []byte) (int, error) {
	if err := r.ctx.Err(); err != nil {
		return 0, fmt.Errorf("%w: %w", trace.ErrCancelled, err)
	}
	return r.f.Read(p)
}

func (r ctxReader) Seek(offset int64, whence int) (int64, error) {
	return r.f.Seek(offset, whence)
}
