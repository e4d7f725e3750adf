package receiver_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osnoise/internal/daemon/daemontest"
	"osnoise/internal/daemon/receiver"
	"osnoise/internal/daemon/router"
	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// newRouter builds an unconstrained router for receiver tests.
func newRouter() *router.Router {
	return router.New(router.Config{MaxConcurrent: 16})
}

// dialNative starts a native receiver, serves it in the background and
// returns a connected client plus a shutdown func.
func dialNative(t *testing.T, ing receiver.Ingestor) (net.Conn, func()) {
	t.Helper()
	n, err := receiver.NewNative("127.0.0.1:0", ing, receiver.NativeConfig{IdleTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.Serve(ctx) }()
	c, err := net.Dial("tcp", n.Addr())
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	return c, func() {
		_ = c.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := n.Shutdown(sctx); err != nil {
			t.Errorf("native shutdown: %v", err)
		}
		cancel()
		if err := <-done; err != nil {
			t.Errorf("native serve: %v", err)
		}
	}
}

// TestNativeRoundTrip streams three traces back to back on one
// connection — exercising Decoder.Reset session reuse — and checks the
// tenant's window is bit-identical to the batch fold.
func TestNativeRoundTrip(t *testing.T) {
	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()
	c, shutdown := dialNative(t, rt)
	defer shutdown()

	opts := noise.DefaultOptions()
	opts.KeepDurations = false

	if _, err := c.Write(daemontest.Greeting("acme")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	var want noise.WindowSummary
	for seed := uint64(1); seed <= 3; seed++ {
		tr := daemontest.Trace(seed)
		rep := noise.Analyze(tr, opts)
		want.AddReport(rep)
		// Vary the chunking: tiny frames, one big frame, odd size.
		chunk := []int{777, 1 << 20, 4096}[seed-1]
		if _, err := c.Write(daemontest.Frames(daemontest.Encode(tr), chunk)); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		wantLine := fmt.Sprintf("OK events=%d noise_ns=%d incomplete=0 sampled=0\n",
			rep.EventsConsumed, rep.TotalNoiseNS)
		if line != wantLine {
			t.Fatalf("trace %d answer %q, want %q", seed, line, wantLine)
		}
	}
	sts := rt.Tenants()
	if len(sts) != 1 || sts[0].ID != "acme" {
		t.Fatalf("tenants after round trip: %+v", sts)
	}
	got := sts[0].Window
	if got.Reports != 3 || got.TotalNoiseNS != want.TotalNoiseNS || got.EventsConsumed != want.EventsConsumed {
		t.Fatalf("window diverges from batch fold:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestNativeErrorResync: a corrupt trace earns an ERR answer but the
// connection stays usable for the next, well-formed trace.
func TestNativeErrorResync(t *testing.T) {
	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()
	c, shutdown := dialNative(t, rt)
	defer shutdown()

	if _, err := c.Write(daemontest.Greeting("acme")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)

	// Garbage payload: valid framing, invalid trace.
	if _, err := c.Write(daemontest.Frames([]byte("this is not a trace at all, not even close"), 7)); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "ERR bad-trace ") {
		t.Fatalf("corrupt trace answer %q, want ERR bad-trace", line)
	}

	// The same connection still ingests a good trace.
	tr := daemontest.Trace(2)
	if _, err := c.Write(daemontest.Frames(daemontest.Encode(tr), 8192)); err != nil {
		t.Fatal(err)
	}
	line, err = br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "OK ") {
		t.Fatalf("post-error trace answer %q, want OK", line)
	}
}

// TestNativeStopsReadingEarly: the analysis stops reading traces before
// their end frames, and the receiver drains the rest so every answer on
// the connection lines up with its trace. The tenant's lifetime budget
// is half the first trace: that trace is analysed as a prefix, and the
// next two are refused right after their headers, most of their 4 KiB
// frames unread.
func TestNativeStopsReadingEarly(t *testing.T) {
	tr := daemontest.Trace(1)
	budget := uint64(len(tr.Events) / 2)
	rt := router.New(router.Config{MaxConcurrent: 4, TenantBudget: noise.Budget{MaxEvents: budget}})
	defer func() { _ = rt.Close(context.Background()) }()
	c, shutdown := dialNative(t, rt)
	defer shutdown()

	if _, err := c.Write(daemontest.Greeting("acme")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	payload := daemontest.Frames(daemontest.Encode(tr), 4096)
	for i, want := range []string{
		fmt.Sprintf("OK events=%d ", budget), "ERR evicted ", "ERR evicted ",
	} {
		if _, err := c.Write(payload); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if !strings.HasPrefix(line, want) || (i == 0 && !strings.Contains(line, " incomplete=1 ")) {
			t.Fatalf("trace %d answer %q, want prefix %q (incomplete=1 on the first)", i, line, want)
		}
	}
	// In frame sync: once the client half-closes, the server reads a
	// clean end of connection, not a leftover frame, and closes.
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if line, err := br.ReadString('\n'); err != io.EOF {
		t.Fatalf("after the last trace: %q, %v; want EOF", line, err)
	}
}

// panicky is an Ingestor that panics on tenant "boom"'s first trace and
// hands every other trace to a router.
type panicky struct {
	*router.Router
	fired atomic.Bool
}

func (p *panicky) Ingest(ctx context.Context, id string, d *trace.Decoder) (router.Result, error) {
	if id == "boom" && p.fired.CompareAndSwap(false, true) {
		panic("engine bug")
	}
	return p.Router.Ingest(ctx, id, d)
}

// captureLog sends the standard logger's output to a buffer until the
// returned func restores it.
func captureLog() (*bytes.Buffer, func()) {
	var buf bytes.Buffer
	w := log.Writer()
	log.SetOutput(&buf)
	return &buf, func() { log.SetOutput(w) }
}

// TestNativeIngestPanic: an analysis that panics costs its trace only.
// It is answered ERR internal and logged with the tenant and the panic
// value, and the next trace on the same connection is answered OK.
func TestNativeIngestPanic(t *testing.T) {
	logged, restore := captureLog()
	defer restore()
	ing := &panicky{Router: newRouter()}
	defer func() { _ = ing.Close(context.Background()) }()
	c, shutdown := dialNative(t, ing)
	defer shutdown()

	if _, err := c.Write(daemontest.Greeting("boom")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	payload := daemontest.Frames(daemontest.Encode(daemontest.Trace(2)), 4096)
	for i, want := range []string{"ERR internal ", "OK "} {
		if _, err := c.Write(payload); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if !strings.HasPrefix(line, want) {
			t.Fatalf("trace %d answer %q, want prefix %q", i, line, want)
		}
	}
	if out := logged.String(); !strings.Contains(out, "boom") || !strings.Contains(out, "engine bug") {
		t.Fatalf("panic log %q names neither the tenant nor the panic value", out)
	}
}

// TestNativeOutOfRangeMigrate: a decodable trace whose sched_migrate
// names a CPU the trace does not have is analysed like any other and
// answered OK, and the next trace on the same connection is answered
// too. Such a record once panicked every analysis path, and with it the
// whole daemon.
func TestNativeOutOfRangeMigrate(t *testing.T) {
	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()
	c, shutdown := dialNative(t, rt)
	defer shutdown()

	if _, err := c.Write(daemontest.Greeting("acme")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	// App 42 is preempted on cpu 0, migrated to cpu 100 of a 2-CPU
	// trace, then switched in on cpu 1.
	bad := &trace.Trace{CPUs: 2, Procs: []trace.ProcInfo{{PID: 42, Name: "app", Kind: trace.ProcApp}}, Events: []trace.Event{
		{TS: 0, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 0, Arg2: 42, Arg3: trace.TaskStateBlocked},
		{TS: 100, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 42, Arg2: 7, Arg3: trace.TaskStateRunning},
		{TS: 200, CPU: 0, ID: trace.EvSchedMigrate, Arg1: 42, Arg2: 0, Arg3: 100},
		{TS: 300, CPU: 1, ID: trace.EvSchedSwitch, Arg1: 0, Arg2: 42, Arg3: trace.TaskStateBlocked},
	}}
	for i, tr := range []*trace.Trace{bad, daemontest.Trace(2)} {
		if _, err := c.Write(daemontest.Frames(daemontest.Encode(tr), 4096)); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if want := fmt.Sprintf("OK events=%d ", len(tr.Events)); !strings.HasPrefix(line, want) {
			t.Fatalf("trace %d answer %q, want prefix %q", i, line, want)
		}
	}
}

// TestNativeProtocolErrors: a bad greeting and an oversized frame both
// end the connection with an ERR proto answer.
func TestNativeProtocolErrors(t *testing.T) {
	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()

	t.Run("greeting", func(t *testing.T) {
		c, shutdown := dialNative(t, rt)
		defer shutdown()
		if _, err := c.Write([]byte("HELLO nope\n")); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(c).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(line, "ERR proto ") {
			t.Fatalf("bad greeting answer %q", line)
		}
	})
	t.Run("frame-too-big", func(t *testing.T) {
		c, shutdown := dialNative(t, rt)
		defer shutdown()
		if _, err := c.Write(daemontest.Greeting("acme")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(c).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(line, "ERR proto ") {
			t.Fatalf("oversized frame answer %q", line)
		}
	})
}

// TestNativeConnSoak: a socket-level soak — many concurrent NOISED/1
// connections, several traces each, no leaked goroutines after drain.
func TestNativeConnSoak(t *testing.T) {
	const (
		conns          = 32
		tracesPerConn  = 3
		distinctTraces = 4
	)
	payloads := make([][]byte, distinctTraces)
	for i := range payloads {
		payloads[i] = daemontest.Frames(daemontest.Encode(daemontest.Trace(uint64(i+1))), 16384)
	}

	baseline := runtime.NumGoroutine()
	rt := router.New(router.Config{MaxConcurrent: 8})
	n, err := receiver.NewNative("127.0.0.1:0", rt, receiver.NativeConfig{IdleTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- n.Serve(ctx) }()

	var wg sync.WaitGroup
	errC := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := net.Dial("tcp", n.Addr())
			if err != nil {
				errC <- err
				return
			}
			defer func() { _ = c.Close() }()
			if _, err := c.Write(daemontest.Greeting(fmt.Sprintf("soak-%02d", i))); err != nil {
				errC <- err
				return
			}
			br := bufio.NewReader(c)
			for k := 0; k < tracesPerConn; k++ {
				if _, err := c.Write(payloads[(i+k)%distinctTraces]); err != nil {
					errC <- fmt.Errorf("conn %d trace %d: %w", i, k, err)
					return
				}
				line, err := br.ReadString('\n')
				if err != nil {
					errC <- fmt.Errorf("conn %d trace %d: %w", i, k, err)
					return
				}
				if !strings.HasPrefix(line, "OK ") {
					errC <- fmt.Errorf("conn %d trace %d: %s", i, k, line)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		t.Fatal(err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := n.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := rt.Streams(); got != conns*tracesPerConn {
		t.Fatalf("streams = %d, want %d", got, conns*tracesPerConn)
	}
	if err := rt.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines polls until the goroutine count returns to baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPIngest: the HTTP API analyses a POSTed trace, answers JSON,
// and maps bad input and bad tenants to 400.
func TestHTTPIngest(t *testing.T) {
	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()
	mux := receiver.NewMux(rt, nil, rt.Tenants)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	tr := daemontest.Trace(1)
	opts := noise.DefaultOptions()
	opts.KeepDurations = false
	rep := noise.Analyze(tr, opts)

	resp, err := http.Post(srv.URL+"/v1/ingest?tenant=acme", "application/octet-stream",
		bytes.NewReader(daemontest.Encode(tr)))
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		router.Result
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, res)
	}
	if res.Tenant != "acme" || res.Events != rep.EventsConsumed || res.NoiseNS != rep.TotalNoiseNS {
		t.Fatalf("ingest result %+v, want events=%d noise=%d", res, rep.EventsConsumed, rep.TotalNoiseNS)
	}

	// Bad tenant and bad payload → 400.
	resp, err = http.Post(srv.URL+"/v1/ingest?tenant=bad/slash", "application/octet-stream",
		bytes.NewReader(daemontest.Encode(tr)))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tenant status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/ingest?tenant=acme", "application/octet-stream",
		strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad payload status %d, want 400", resp.StatusCode)
	}

	// A compressed trace is not accepted: the body must be the fixed
	// format, which is all trace.NewDecoder reads.
	var z bytes.Buffer
	if err := trace.WriteCompressed(&z, tr); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/ingest?tenant=acme", "application/octet-stream", &z)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("compressed trace status %d, want 400", resp.StatusCode)
	}

	// The status endpoint shows the tenant.
	resp, err = http.Get(srv.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var sts []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&sts); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if len(sts) != 1 || sts[0]["ID"] != "acme" {
		t.Fatalf("/v1/tenants = %+v", sts)
	}
}

// TestHTTPIngestPanic: a panicking analysis answers its request 500
// with a JSON error body, logged with the tenant and the panic value,
// and the tenant's next request is analysed.
func TestHTTPIngestPanic(t *testing.T) {
	logged, restore := captureLog()
	defer restore()
	ing := &panicky{Router: newRouter()}
	defer func() { _ = ing.Close(context.Background()) }()
	srv := httptest.NewServer(receiver.NewMux(ing, nil, ing.Tenants))
	defer srv.Close()

	raw := daemontest.Encode(daemontest.Trace(1))
	for i, want := range []int{http.StatusInternalServerError, http.StatusOK} {
		resp, err := http.Post(srv.URL+"/v1/ingest?tenant=boom", "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		var res struct {
			router.Result
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&res)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatalf("request %d: decoding the JSON body: %v", i, err)
		}
		if resp.StatusCode != want || (want != http.StatusOK && !strings.Contains(res.Error, "engine bug")) {
			t.Fatalf("request %d: status %d, body %+v; want %d", i, resp.StatusCode, res, want)
		}
	}
	if out := logged.String(); !strings.Contains(out, "boom") || !strings.Contains(out, "engine bug") {
		t.Fatalf("panic log %q names neither the tenant nor the panic value", out)
	}
}

// TestValidTenant pins the tenant-identifier grammar both transports
// share.
func TestValidTenant(t *testing.T) {
	for id, want := range map[string]bool{
		"a":                      true,
		"acme-prod_7.2":          true,
		"":                       false,
		"has space":              false,
		"slash/y":                false,
		strings.Repeat("x", 128): true,
		strings.Repeat("x", 129): false,
		"newline\n":              false,
	} {
		if got := receiver.ValidTenant(id); got != want {
			t.Errorf("ValidTenant(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestDecoderStreamMatchesBatch: the trace decoded through the native
// pipe path produces a report identical to decoding from memory —
// pinning that frame chunking is invisible to the analysis.
func TestDecoderStreamMatchesBatch(t *testing.T) {
	tr := daemontest.Trace(5)
	raw := daemontest.Encode(tr)
	opts := noise.DefaultOptions()
	opts.KeepDurations = false
	want := noise.Analyze(tr, opts)

	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()
	c, shutdown := dialNative(t, rt)
	defer shutdown()
	if _, err := c.Write(daemontest.Greeting("t")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(daemontest.Frames(raw, 333)); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	wantLine := fmt.Sprintf("OK events=%d noise_ns=%d incomplete=0 sampled=0\n",
		want.EventsConsumed, want.TotalNoiseNS)
	if line != wantLine {
		t.Fatalf("native answer %q, want %q", line, wantLine)
	}
	// Belt and braces: the decoder API used by the pipe path agrees.
	d, err := trace.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := noise.AnalyzeStream(context.Background(), d, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalNoiseNS != want.TotalNoiseNS || got.EventsConsumed != want.EventsConsumed {
		t.Fatalf("stream/batch divergence: %d/%d vs %d/%d",
			got.TotalNoiseNS, got.EventsConsumed, want.TotalNoiseNS, want.EventsConsumed)
	}
}
