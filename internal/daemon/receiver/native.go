package receiver

// The native streaming protocol, NOISED/1.
//
// One TCP connection carries one tenant's traces back to back:
//
//	client → server   "NOISED/1 <tenant>\n"
//	repeat per trace:
//	  client → server   frames: 4-byte big-endian payload length,
//	                    then that many bytes; payloads concatenate
//	                    into one LTTNOISE trace stream; a zero-length
//	                    frame ends the trace
//	  server → client   "OK events=<n> noise_ns=<n> incomplete=<0|1> sampled=<0|1>\n"
//	                    or "ERR <code> <message>\n"
//	client closes (or half-closes) when done; EOF between traces is
//	the clean end of the connection.
//
// Each trace is analysed on the connection's own goroutine: the
// connection's Decoder reads the frame payloads straight off the socket
// through a frameReader, and once the analysis returns the frameReader
// drains whatever it left unread up to the end frame. The framing layer
// is independent of trace content, so a trace-level failure (corrupt
// payload, evicted tenant, budget truncation, a panicking analysis)
// only costs that trace and the connection keeps going. Only
// framing-level damage (oversized frame, short read, socket error) ends
// the connection.
//
// The Decoder is Reset between traces and the frameReader re-armed, so
// the header scratch, bufio reader and event staging buffer are reused
// for the connection's whole lifetime, and the analysis takes its
// working buffers from the noise package's pools: what a trace
// allocates is essentially its Report.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"osnoise/internal/daemon/router"
	"osnoise/internal/daemon/tenant"
	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// protocol framing constants.
const (
	// protoHeader opens every native connection.
	protoHeader = "NOISED/1"
	// maxHeaderLine bounds the greeting line.
	maxHeaderLine = 16 + maxTenantLen
	// maxFrame bounds one frame payload (16 MiB): large enough for
	// any sane chunking, small enough that a hostile length cannot
	// commit the server to gigabytes.
	maxFrame = 16 << 20
)

// protoErrf builds a connection-fatal protocol error. The hot frame
// reader only reaches it through the errFrame* coldpath barriers.
func protoErrf(format string, args ...any) error {
	return fmt.Errorf("receiver native: "+format, args...)
}

// NativeConfig tunes the native receiver.
type NativeConfig struct {
	// IdleTimeout bounds the wait for the next frame or header on an
	// idle connection; zero means 5 minutes.
	IdleTimeout time.Duration
}

// Native is the daemon's streaming receiver: a bound TCP listener
// whose connections speak NOISED/1.
type Native struct {
	ln    net.Listener
	ing   Ingestor
	cfg   NativeConfig
	drain atomic.Bool

	// mu guards the connection registry used to force-close laggards
	// at the drain deadline. Innermost daemon lock on this path.
	//noisevet:lockrank daemon 4
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// NewNative binds addr and returns a native receiver feeding ing.
func NewNative(addr string, ing Ingestor, cfg NativeConfig) (*Native, error) {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("receiver native: %w", err)
	}
	return &Native{ln: ln, ing: ing, cfg: cfg, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound listen address.
func (n *Native) Addr() string { return n.ln.Addr().String() }

// track registers a live connection.
func (n *Native) track(c net.Conn) {
	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.mu.Unlock()
}

// untrack removes a finished connection.
func (n *Native) untrack(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// active returns the number of live connections.
func (n *Native) active() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// closeConns force-closes every live connection.
func (n *Native) closeConns() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for c := range n.conns {
		_ = c.Close()
	}
}

// Serve accepts connections until Shutdown closes the listener, then
// waits for the connection handlers to finish. ctx bounds the
// analyses the handlers start.
func (n *Native) Serve(ctx context.Context) error {
	var wg sync.WaitGroup
	for {
		c, err := n.ln.Accept()
		if err != nil {
			wg.Wait()
			if n.drain.Load() || ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("receiver native: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.handle(ctx, c)
		}()
	}
}

// Shutdown stops accepting, lets in-flight connections finish their
// current trace (handlers check the drain flag between traces), and
// force-closes whatever is left when ctx expires.
func (n *Native) Shutdown(ctx context.Context) error {
	n.drain.Store(true)
	_ = n.ln.Close()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for n.active() > 0 {
		select {
		case <-ctx.Done():
			n.closeConns()
			return fmt.Errorf("receiver native: drain: %w", ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// readHeaderLine reads the greeting line and returns the tenant ID.
func readHeaderLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", protoErrf("reading header: %w", err)
	}
	if len(line) > maxHeaderLine {
		return "", protoErrf("header line too long")
	}
	line = line[:len(line)-1] // trailing \n
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	if len(line) < len(protoHeader)+2 || line[:len(protoHeader)] != protoHeader || line[len(protoHeader)] != ' ' {
		return "", protoErrf("bad greeting %q", line)
	}
	id := line[len(protoHeader)+1:]
	if !ValidTenant(id) {
		return "", protoErrf("malformed tenant %q", id)
	}
	return id, nil
}

// frameReader presents one trace's frame payloads as a single byte
// stream read straight from the connection's buffered reader: Read
// returns payload bytes of the current frame, reads the next frame
// header when the current one is used up, and returns io.EOF at the
// zero-length end frame. Framing damage is sticky: every later Read
// returns it, and so does drain. A connection keeps one frameReader
// for its lifetime, as it keeps its Decoder.
type frameReader struct {
	br  *bufio.Reader
	rem int  // payload bytes left in the current frame
	end bool // the zero-length end frame has been read
	err error
	hdr [4]byte
}

// readLen reads one big-endian frame length.
func (f *frameReader) readLen() (uint32, error) {
	if _, err := io.ReadFull(f.br, f.hdr[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(f.hdr[:]), nil
}

// setFrame starts a frame of n payload bytes; zero is the end frame.
func (f *frameReader) setFrame(n uint32) {
	switch {
	case n == 0:
		f.end = true
	case n > maxFrame:
		f.err = errFrameTooBig(n)
	default:
		f.rem = int(n)
	}
}

// begin arms f for a trace whose first frame announced n bytes.
func (f *frameReader) begin(n uint32) {
	f.rem, f.end, f.err = 0, false, nil
	f.setFrame(n)
}

// nextFrame reads the next frame header of the trace.
func (f *frameReader) nextFrame() {
	n, err := f.readLen()
	if err != nil {
		f.err = errFrameRead(err)
		return
	}
	f.setFrame(n)
}

// Read reads the trace's payload bytes, never past its end frame.
//
//noisevet:hotpath
func (f *frameReader) Read(p []byte) (int, error) {
	for f.rem == 0 && !f.end && f.err == nil {
		f.nextFrame()
	}
	if f.err != nil {
		return 0, f.err
	}
	if f.end {
		return 0, io.EOF
	}
	if len(p) > f.rem {
		p = p[:f.rem]
	}
	n, err := f.br.Read(p)
	f.rem -= n
	if err != nil {
		f.err = errFrameRead(err)
	}
	return n, f.err
}

// drain discards the rest of the trace through its end frame, so the
// next trace starts on a frame boundary whatever the analysis left
// unread. A non-nil result is framing damage: the connection must end.
func (f *frameReader) drain() error {
	for !f.end && f.err == nil {
		if f.rem == 0 {
			f.nextFrame()
			continue
		}
		n, err := f.br.Discard(f.rem)
		f.rem -= n
		if err != nil {
			f.err = errFrameRead(err)
		}
	}
	return f.err
}

// errFrameTooBig reports a frame length beyond the protocol bound.
//
//noisevet:coldpath
func errFrameTooBig(n uint32) error {
	return protoErrf("frame of %d bytes exceeds the %d byte bound", n, int64(maxFrame))
}

// errFrameRead reports framing-level stream damage.
//
//noisevet:coldpath
func errFrameRead(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return protoErrf("mid-trace: %w", err)
}

// errCode names an ingest error family on the wire.
func errCode(err error) string {
	switch {
	case errors.Is(err, tenant.ErrEvicted):
		return "evicted"
	case trace.IsInputError(err):
		return "bad-trace"
	case errors.Is(err, noise.ErrCancelled):
		return "cancelled"
	default:
		return "internal"
	}
}

// oneLine flattens an error message for the single-line ERR answer.
func oneLine(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c == '\n' || c == '\r' {
			out[i] = ' '
		}
	}
	return string(out)
}

// runTrace analyses one trace on the connection goroutine, its
// Decoder reading the frames through f, then drains what the analysis
// left unread. It returns the analysis answer and, separately, any
// connection-fatal framing error, which wins over the answer.
func (n *Native) runTrace(ctx context.Context, id string, d **trace.Decoder, f *frameReader, first uint32) (res router.Result, ingErr, connErr error) {
	f.begin(first)
	if *d == nil {
		*d, ingErr = trace.NewDecoder(f)
	} else {
		ingErr = (*d).Reset(f)
	}
	if ingErr == nil {
		res, ingErr = safeIngest(ctx, n.ing, id, *d)
	}
	return res, ingErr, f.drain()
}

// handle speaks NOISED/1 on one connection.
func (n *Native) handle(ctx context.Context, c net.Conn) {
	n.track(c)
	defer n.untrack(c)
	defer func() { _ = c.Close() }()

	br := bufio.NewReaderSize(c, 64<<10)
	_ = c.SetReadDeadline(time.Now().Add(n.cfg.IdleTimeout))
	id, err := readHeaderLine(br)
	if err != nil {
		fmt.Fprintf(c, "ERR proto %s\n", oneLine(err.Error()))
		return
	}

	var d *trace.Decoder
	f := &frameReader{br: br}
	for {
		if n.drain.Load() || ctx.Err() != nil {
			return
		}
		_ = c.SetReadDeadline(time.Now().Add(n.cfg.IdleTimeout))
		// The first frame header doubles as the keepalive point: EOF
		// here is the clean end of the connection.
		first, err := f.readLen()
		if err != nil {
			if err != io.EOF {
				fmt.Fprintf(c, "ERR proto %s\n", oneLine(err.Error()))
			}
			return
		}
		if first == 0 {
			fmt.Fprintf(c, "ERR proto empty trace\n")
			continue
		}
		res, ingErr, connErr := n.runTrace(ctx, id, &d, f, first)
		if connErr != nil {
			fmt.Fprintf(c, "ERR proto %s\n", oneLine(connErr.Error()))
			return
		}
		if ingErr != nil {
			fmt.Fprintf(c, "ERR %s %s\n", errCode(ingErr), oneLine(ingErr.Error()))
			continue
		}
		incomplete, sampled := 0, 0
		if res.Incomplete {
			incomplete = 1
		}
		if res.Sampled {
			sampled = 1
		}
		fmt.Fprintf(c, "OK events=%d noise_ns=%d incomplete=%d sampled=%d\n",
			res.Events, res.NoiseNS, incomplete, sampled)
	}
}
