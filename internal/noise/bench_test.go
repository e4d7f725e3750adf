package noise_test

// Pipeline micro-benchmarks: the same sequential-vs-raw comparison the
// noisebench -pipeline harness runs, exposed as go benchmarks so the
// phases can be profiled (`go test -bench AnalyzeRaw -cpuprofile ...`).

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"osnoise/internal/noise"
	"osnoise/internal/sim"
	"osnoise/internal/trace"
	"osnoise/internal/workload"
)

// benchRaw builds a ~1M-event encoded AMG trace by tiling a 1-second
// base capture, mirroring the noisebench pipeline harness.
func benchRaw(tb testing.TB) []byte {
	tb.Helper()
	base := workload.New(workload.AMG(), workload.Options{
		Duration: sim.Second,
		Seed:     42,
	}).Execute()
	target := 1_000_000
	first, last := base.Span()
	period := last - first + int64(sim.Millisecond)
	tiled := &trace.Trace{CPUs: base.CPUs, Lost: base.Lost, Procs: base.Procs}
	tiled.Events = make([]trace.Event, 0, target+len(base.Events))
	for shift := int64(0); len(tiled.Events) < target; shift += period {
		for _, ev := range base.Events {
			ev.TS += shift
			tiled.Events = append(tiled.Events, ev)
		}
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, tiled); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkAnalyzeSequential times the harness's "sequential" row: a
// full trace.Read, then Analyze, which is the engine at one shard.
func BenchmarkAnalyzeSequential(b *testing.B) {
	raw := benchRaw(b)
	opts := noise.DefaultOptions()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		noise.Analyze(tr, opts)
	}
}

func BenchmarkAnalyzeRaw8(b *testing.B) {
	raw := benchRaw(b)
	opts := noise.DefaultOptions()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := noise.AnalyzeRaw(context.Background(), trace.BytesReaderAt(raw), int64(len(raw)), opts, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// topSink keeps BenchmarkTopInterruptions' result live.
var topSink []noise.Interruption

// BenchmarkTopInterruptions selects the ten largest of ~270k
// interruptions, the size of a 12-second AMG trace's report; totals
// come from a narrow range so ties are common, as in real traces.
func BenchmarkTopInterruptions(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := &noise.Report{Interruptions: make([]noise.Interruption, 270_000)}
	for i := range r.Interruptions {
		r.Interruptions[i] = noise.Interruption{
			CPU:   int32(i % 8),
			Start: int64(i) * 1000,
			Total: 2000 + rng.Int63n(5000),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topSink = r.TopInterruptions(10)
	}
}
