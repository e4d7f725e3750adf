package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childRun is the cost of one finished program run.
type childRun struct {
	wall      time.Duration
	user, sys time.Duration
	rssMB     float64 // peak resident set
}

// cpuMS is the run's user plus system CPU time in milliseconds.
func (c childRun) cpuMS() float64 { return float64(c.user+c.sys) / 1e6 }

// usage reads the rusage of an exited process.
func usage(ps *os.ProcessState) childRun {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return childRun{}
	}
	return childRun{
		user:  time.Duration(ru.Utime.Nano()),
		sys:   time.Duration(ru.Stime.Nano()),
		rssMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// runChild runs a program to completion with its standard output
// discarded and returns what it cost; a non-zero exit is an error.
func runChild(ctx context.Context, path string, args ...string) (childRun, error) {
	cmd := exec.CommandContext(ctx, path, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t := time.Now()
	err := cmd.Run()
	wall := time.Since(t)
	var r childRun
	if cmd.ProcessState != nil {
		r = usage(cmd.ProcessState)
	}
	r.wall = wall
	if err != nil {
		return r, fmt.Errorf("%s: %w: %s", filepath.Base(path), err, strings.TrimSpace(stderr.String()))
	}
	return r, nil
}

// daemon is a running noised.
type daemon struct {
	cmd                  *exec.Cmd
	httpAddr, nativeAddr string
	logDone              chan struct{} // closed when stderr reaches EOF
	logTail              []string      // last stderr lines, readable after logDone
}

// startNoised starts noised on loopback ports the kernel picks, writing
// flushes to sinkPath, and returns once /healthz answers.
func startNoised(ctx context.Context, bin, sinkPath string) (*daemon, error) {
	cmd := exec.CommandContext(ctx, bin, "-listen", "127.0.0.1:0", "-native", "127.0.0.1:0",
		"-flush", "1s", "-sinks", "file="+sinkPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting noised: %w", err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	sc := bufio.NewScanner(stderr)
	for (d.httpAddr == "" || d.nativeAddr == "") && sc.Scan() {
		line := sc.Text()
		d.logTail = append(d.logTail, line)
		if a, ok := strings.CutPrefix(line, "noised: http listening on "); ok {
			d.httpAddr = a
		}
		if a, ok := strings.CutPrefix(line, "noised: native listening on "); ok {
			d.nativeAddr = a
		}
	}
	go func() {
		defer close(d.logDone)
		for sc.Scan() {
			d.logTail = append(d.logTail, sc.Text())
			if len(d.logTail) > 20 {
				d.logTail = d.logTail[1:]
			}
		}
	}()
	if d.httpAddr == "" || d.nativeAddr == "" {
		_, _ = d.stop()
		return nil, fmt.Errorf("noised did not report its addresses: %s", strings.Join(d.logTail, "; "))
	}
	if err := waitHealthy(ctx, d.httpAddr); err != nil {
		_, _ = d.stop()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(ctx context.Context, addr string) error {
	cl := &http.Client{Timeout: time.Second}
	defer cl.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := cl.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("noised /healthz never answered: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the drain and returns the daemon's
// lifetime cost; an unclean exit is an error.
func (d *daemon) stop() (childRun, error) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	<-d.logDone
	err := d.cmd.Wait()
	r := usage(d.cmd.ProcessState)
	if err != nil {
		return r, fmt.Errorf("noised: %w: %s", err, strings.Join(d.logTail, "; "))
	}
	return r, nil
}

// answer is one ingest answer from noised, on either transport.
type answer struct {
	code       string // "" for a success, else the error family
	events     uint64
	noiseNS    int64
	incomplete bool
	sampled    bool
}

// ref is the reference answer for one trace, computed in-process.
type ref struct {
	events  uint64
	noiseNS int64
}

// matches reports whether a answers the trace ref describes.
func (a answer) matches(r ref) bool {
	return a.code == "" && !a.incomplete && !a.sampled && a.events == r.events && a.noiseNS == r.noiseNS
}

// native is a client connection speaking NOISED/1.
type native struct {
	c  net.Conn
	bw *bufio.Writer
	br *bufio.Reader
}

// frameSize is the payload size of each NOISED/1 frame the client sends.
const frameSize = 64 << 10

// dialNative connects and sends the greeting for tenant.
func dialNative(ctx context.Context, addr, tenant string) (*native, error) {
	var dl net.Dialer
	c, err := dl.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if dl, ok := ctx.Deadline(); ok {
		_ = c.SetDeadline(dl)
	}
	n := &native{c: c, bw: bufio.NewWriterSize(c, frameSize+4), br: bufio.NewReader(c)}
	if _, err := fmt.Fprintf(n.bw, "NOISED/1 %s\n", tenant); err != nil {
		c.Close()
		return nil, err
	}
	return n, nil
}

// send frames one trace and the zero-length end frame.
func (n *native) send(b []byte) error {
	var hdr [4]byte
	for len(b) > 0 {
		chunk := min(len(b), frameSize)
		binary.BigEndian.PutUint32(hdr[:], uint32(chunk))
		if _, err := n.bw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := n.bw.Write(b[:chunk]); err != nil {
			return err
		}
		b = b[chunk:]
	}
	binary.BigEndian.PutUint32(hdr[:], 0)
	if _, err := n.bw.Write(hdr[:]); err != nil {
		return err
	}
	return n.bw.Flush()
}

// answer reads the next answer line.
func (n *native) answer() (answer, error) {
	line, err := n.br.ReadString('\n')
	if err != nil {
		return answer{}, fmt.Errorf("reading a NOISED/1 answer: %w", err)
	}
	f := strings.Fields(line)
	if len(f) >= 2 && f[0] == "ERR" {
		return answer{code: f[1]}, nil
	}
	if len(f) != 5 || f[0] != "OK" {
		return answer{}, fmt.Errorf("malformed NOISED/1 answer %q", line)
	}
	var a answer
	for _, kv := range f[1:] {
		k, v, _ := strings.Cut(kv, "=")
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return answer{}, fmt.Errorf("malformed NOISED/1 answer %q", line)
		}
		switch k {
		case "events":
			a.events = uint64(x)
		case "noise_ns":
			a.noiseNS = x
		case "incomplete":
			a.incomplete = x != 0
		case "sampled":
			a.sampled = x != 0
		}
	}
	return a, nil
}

// closeWrite tells the server no more traces follow.
func (n *native) closeWrite() error {
	if tc, ok := n.c.(*net.TCPConn); ok {
		return tc.CloseWrite()
	}
	return nil
}

func (n *native) close() { n.c.Close() }
