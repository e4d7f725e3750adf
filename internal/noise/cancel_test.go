package noise_test

// Regression tests for the cancellation contract: cancelling any
// parallel analysis entry point returns a typed error plus a partial
// report, and leaks zero goroutines — across shard counts and no matter
// where in the run the context fires. Run under -race in CI.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// checkNoLeak polls until the live goroutine count returns to the
// baseline captured before the cancelled runs. Workers exit at their
// next boundary check, so a short grace period is allowed; a leaked
// worker never exits and fails the test.
func checkNoLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d live, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// assertCancelled checks the typed-error and partial-result contract.
func assertCancelled(t *testing.T, entry string, r *noise.Report, err error) {
	t.Helper()
	if !errors.Is(err, noise.ErrCancelled) {
		t.Fatalf("%s: err %v does not wrap noise.ErrCancelled", entry, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("%s: err %v does not wrap context.Canceled", entry, err)
	}
	if r == nil {
		t.Fatalf("%s: cancelled run returned no partial report", entry)
	}
	if !r.Incomplete {
		t.Fatalf("%s: cancelled report not marked Incomplete", entry)
	}
}

// TestCancelledEntryPoints cancels every parallel entry point before it
// starts: each must return the typed error with a partial report and
// join all its workers.
func TestCancelledEntryPoints(t *testing.T) {
	tr := simTrace(3)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	opts := noise.DefaultOptions()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	baseline := runtime.NumGoroutine()
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			r, err := noise.AnalyzeParallel(ctx, tr, opts, shards)
			assertCancelled(t, "AnalyzeParallel", r, err)

			d, derr := trace.NewDecoder(bytes.NewReader(raw))
			if derr != nil {
				t.Fatal(derr)
			}
			r, err = noise.AnalyzeStream(ctx, d, opts, shards)
			assertCancelled(t, "AnalyzeStream", r, err)

			r, err = noise.AnalyzeRaw(ctx, bytes.NewReader(raw), int64(len(raw)), opts, shards)
			assertCancelled(t, "AnalyzeRaw", r, err)
		})
	}
	checkNoLeak(t, baseline)
}

// TestCancelMidRun fires the context at varying points during the run.
// The race between the cancel and completion is inherent, so both
// outcomes are legal — but each must honour its side of the contract: a
// clean result, or a typed error with a partial report. Either way no
// goroutine may outlive the call. The one-minute delay never fires
// before the run ends, so every entry point's completed report is also
// compared against the oracle's.
func TestCancelMidRun(t *testing.T) {
	tr := simTrace(4)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	opts := noise.DefaultOptions()
	want := noise.AnalyzeOracle(tr, opts)

	type entry struct {
		name string
		run  func(ctx context.Context, shards int) (*noise.Report, error)
	}
	entries := []entry{
		{"AnalyzeParallel", func(ctx context.Context, shards int) (*noise.Report, error) {
			return noise.AnalyzeParallel(ctx, tr, opts, shards)
		}},
		{"AnalyzeStream", func(ctx context.Context, shards int) (*noise.Report, error) {
			d, err := trace.NewDecoder(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			return noise.AnalyzeStream(ctx, d, opts, shards)
		}},
		{"AnalyzeRaw", func(ctx context.Context, shards int) (*noise.Report, error) {
			return noise.AnalyzeRaw(ctx, bytes.NewReader(raw), int64(len(raw)), opts, shards)
		}},
	}

	baseline := runtime.NumGoroutine()
	for _, e := range entries {
		for _, shards := range []int{1, 3, 8} {
			for _, delay := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond, time.Minute} {
				t.Run(fmt.Sprintf("%s/shards%d/delay%v", e.name, shards, delay), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					timer := time.AfterFunc(delay, cancel)
					r, err := e.run(ctx, shards)
					timer.Stop()
					cancel()
					if err != nil {
						assertCancelled(t, e.name, r, err)
						return
					}
					// The run beat the cancel: the result must be the full
					// report, bit-identical to the oracle's.
					if r.Incomplete {
						t.Fatal("completed run marked Incomplete")
					}
					compareReports(t, want, r)
				})
			}
		}
	}
	checkNoLeak(t, baseline)
}

// TestCancelledTimeout exercises the deadline flavour: the error must
// satisfy errors.Is against both the package sentinel and
// context.DeadlineExceeded, which is what the CLI exit-code mapping
// keys on.
func TestCancelledTimeout(t *testing.T) {
	tr := simTrace(3)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	r, err := noise.AnalyzeParallel(ctx, tr, noise.DefaultOptions(), 4)
	if !errors.Is(err, noise.ErrCancelled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want ErrCancelled wrapping DeadlineExceeded", err)
	}
	if r == nil || !r.Incomplete {
		t.Fatalf("partial-report contract violated: %+v", r)
	}
}
