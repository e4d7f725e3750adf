package router_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"osnoise/internal/daemon/daemontest"
	"osnoise/internal/daemon/router"
	"osnoise/internal/daemon/sink"
	"osnoise/internal/daemon/tenant"
	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// daemonOptions mirrors the options the router hands tenants.
func daemonOptions() noise.Options {
	opts := noise.DefaultOptions()
	opts.KeepDurations = false
	return opts
}

// ingest streams one encoded trace through the router.
func ingest(t *testing.T, rt *router.Router, id string, raw []byte) (router.Result, error) {
	t.Helper()
	d, err := trace.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return rt.Ingest(context.Background(), id, d)
}

// waitGoroutines polls until the live goroutine count drops back to
// the baseline, failing after 10 seconds — the leak assertion the soak
// acceptance demands.
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

// memorySink retains every batch it is handed.
type memorySink struct {
	mu      sync.Mutex
	batches [][]sink.Record
	closed  bool
}

func (m *memorySink) Name() string { return "memory" }

func (m *memorySink) Emit(_ context.Context, recs []sink.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := make([]sink.Record, len(recs))
	copy(cp, recs)
	m.batches = append(m.batches, cp)
	return nil
}

func (m *memorySink) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}

// TestRouterSoak is the acceptance soak: ≥1000 concurrent streams
// across hundreds of tenants under -race, zero leaked goroutines, and
// every tenant's final rolling summary bit-identical to the batch
// analyzer folded over the same events.
func TestRouterSoak(t *testing.T) {
	const (
		tenants          = 250
		streamsPerTenant = 4
		seeds            = 8 // distinct traces, cycled across tenants
	)
	raws := make([][]byte, seeds)
	reports := make([]*noise.Report, seeds)
	for i := range raws {
		tr := daemontest.Trace(uint64(i + 1))
		raws[i] = daemontest.Encode(tr)
		reports[i] = noise.Analyze(tr, daemonOptions())
	}

	baseline := runtime.NumGoroutine()
	mem := &memorySink{}
	rt := router.New(router.Config{
		MaxConcurrent: 32,
		Now:           func() int64 { return 42 },
	}, mem)

	var wg sync.WaitGroup
	errC := make(chan error, tenants*streamsPerTenant)
	for ten := 0; ten < tenants; ten++ {
		id := fmt.Sprintf("tenant-%03d", ten)
		raw := raws[ten%seeds]
		for s := 0; s < streamsPerTenant; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d, err := trace.NewDecoder(bytes.NewReader(raw))
				if err == nil {
					_, err = rt.Ingest(context.Background(), id, d)
				}
				if err != nil {
					errC <- fmt.Errorf("%s: %w", id, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		t.Fatal(err)
	}
	if got := rt.Streams(); got != tenants*streamsPerTenant {
		t.Fatalf("stream counter = %d, want %d", got, tenants*streamsPerTenant)
	}
	if rt.InFlight() != 0 {
		t.Fatalf("in-flight = %d after soak", rt.InFlight())
	}

	// Bit-identity: each tenant streamed the same trace 4×, so its
	// window must equal the batch report folded 4× — regardless of the
	// interleaving the soak produced.
	statuses := rt.Tenants()
	if len(statuses) != tenants {
		t.Fatalf("tenant count = %d, want %d", len(statuses), tenants)
	}
	for i, st := range statuses {
		var want noise.WindowSummary
		for s := 0; s < streamsPerTenant; s++ {
			want.AddReport(reports[i%seeds])
		}
		if !reflect.DeepEqual(want, st.Window) {
			t.Fatalf("tenant %s window diverges from batch fold:\nwant %+v\ngot  %+v",
				st.ID, want, st.Window)
		}
	}

	// Flush feeds every tenant to the sink with the injected clock.
	if err := rt.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	mem.mu.Lock()
	batches := len(mem.batches)
	var first sink.Record
	if batches > 0 && len(mem.batches[0]) > 0 {
		first = mem.batches[0][0]
	}
	recCount := 0
	if batches > 0 {
		recCount = len(mem.batches[0])
	}
	mem.mu.Unlock()
	if batches != 1 || recCount != tenants {
		t.Fatalf("flush produced %d batches / %d records, want 1 / %d", batches, recCount, tenants)
	}
	if first.TimeNS != 42 || first.Tenant != "tenant-000" {
		t.Fatalf("first record = %+v, want injected clock and sorted tenants", first)
	}

	if err := rt.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// TestRouterOverloadSampling: with one slot and a zero pending
// threshold, queued streams degrade to the sample cap instead of
// failing, and the degradation is visible in Result and counters.
func TestRouterOverloadSampling(t *testing.T) {
	tr := daemontest.Trace(1)
	raw := daemontest.Encode(tr)
	sample := uint64(len(tr.Events)) / 4
	rt := router.New(router.Config{
		MaxConcurrent: 1,
		MaxPending:    1,
		SampleEvents:  sample,
	})
	defer func() { _ = rt.Close(context.Background()) }()

	const streams = 12
	var wg sync.WaitGroup
	results := make([]router.Result, streams)
	errs := make([]error, streams)
	start := func(i int, r io.Reader) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := trace.NewDecoder(r)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = rt.Ingest(context.Background(), fmt.Sprintf("t%d", i), d)
		}()
	}
	// waitInFlight polls until n streams hold or wait for a slot.
	waitInFlight := func(n int) {
		for deadline := time.Now().Add(10 * time.Second); rt.InFlight() != n; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("in flight = %d, want %d", rt.InFlight(), n)
			}
		}
	}
	// Stream 0 reads from a pipe that stalls after its header and first
	// event, so it holds the only slot until all the others are queued
	// behind it: the overload is certain, not a scheduling race that a
	// fast analysis can win.
	pr, pw := io.Pipe()
	defer func() { _ = pw.Close() }()
	start(0, pr)
	head := 32 + trace.EventSize
	if _, err := pw.Write(raw[:head]); err != nil {
		t.Fatal(err)
	}
	waitInFlight(1)
	for i := 1; i < streams; i++ {
		start(i, bytes.NewReader(raw))
	}
	waitInFlight(streams)
	if _, err := pw.Write(raw[head:]); err != nil {
		t.Fatal(err)
	}
	_ = pw.Close()
	wg.Wait()
	sampled := 0
	for i := 0; i < streams; i++ {
		if errs[i] != nil {
			t.Fatalf("stream %d failed under overload: %v", i, errs[i])
		}
		if results[i].Sampled {
			sampled++
			if results[i].Events != sample || !results[i].Incomplete {
				t.Fatalf("degraded stream %d consumed %d events (incomplete=%v), want cap %d",
					i, results[i].Events, results[i].Incomplete, sample)
			}
		} else if results[i].Events != uint64(len(tr.Events)) {
			t.Fatalf("undegraded stream %d consumed %d events, want %d",
				i, results[i].Events, len(tr.Events))
		}
	}
	if sampled == 0 {
		t.Fatal("no stream degraded despite a single slot and 12 waiters")
	}
	if got := rt.SampledStreams(); got != uint64(sampled) {
		t.Fatalf("sampled counter = %d, want %d", got, sampled)
	}
}

// TestRouterEvictionSurfaced: the router reports eviction both on the
// exhausting stream's Result and as ErrEvicted afterwards.
func TestRouterEvictionSurfaced(t *testing.T) {
	tr := daemontest.Trace(1)
	raw := daemontest.Encode(tr)
	rt := router.New(router.Config{
		TenantBudget: noise.Budget{MaxEvents: uint64(len(tr.Events)) / 2},
	})
	defer func() { _ = rt.Close(context.Background()) }()

	res, err := ingest(t, rt, "a", raw)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Evicted || !res.Incomplete {
		t.Fatalf("exhausting stream result = %+v, want evicted+incomplete", res)
	}
	res, err = ingest(t, rt, "a", raw)
	if !errors.Is(err, tenant.ErrEvicted) || !res.Evicted {
		t.Fatalf("post-eviction: res=%+v err=%v, want ErrEvicted", res, err)
	}
	if _, err := ingest(t, rt, "b", raw); err != nil {
		t.Fatalf("other tenant rejected after a's eviction: %v", err)
	}
}

// TestRouterCancelledWaiter: a waiter whose context dies while queued
// gets the typed cancellation error, not a hang.
func TestRouterCancelledWaiter(t *testing.T) {
	raw := daemontest.Encode(daemontest.Trace(1))
	rt := router.New(router.Config{MaxConcurrent: 1})
	defer func() { _ = rt.Close(context.Background()) }()

	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Hold the only slot via a slow decoder: a reader that blocks
		// until released.
		d, err := trace.NewDecoder(&gatedReader{raw: raw, started: started, release: release})
		if err == nil {
			_, _ = rt.Ingest(context.Background(), "slow", d)
		}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	d, err := trace.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rt.Ingest(ctx, "fast", d)
	if !errors.Is(err, noise.ErrCancelled) {
		t.Fatalf("queued waiter err = %v, want noise.ErrCancelled", err)
	}
	close(release)
	wg.Wait()
}

// gatedReader serves the header immediately, then blocks the event
// section until released — a stream stalled mid-trace.
type gatedReader struct {
	raw     []byte
	off     int
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.off < 64 {
		n := copy(p, g.raw[g.off:64])
		g.off += n
		return n, nil
	}
	g.once.Do(func() { close(g.started) })
	<-g.release
	if g.off >= len(g.raw) {
		return 0, io.EOF
	}
	n := copy(p, g.raw[g.off:])
	g.off += n
	return n, nil
}
