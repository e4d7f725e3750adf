package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"osnoise/internal/export"
	"osnoise/internal/noise"
	"osnoise/internal/trace"
	"osnoise/internal/tracetool"
)

// offline is the operator's batch path: noisereport -json runs back to
// back, with its default parallelism, on one long AMG trace generated at
// setup. Every run's total_noise_ns must equal the reference.
type offline struct {
	size   sizes
	path   string
	digest [32]byte
	want   ref
}

func newOffline(s sizes) runner { return &offline{size: s} }

func (w *offline) setup(ctx context.Context, e *env) error {
	tr, _ := synth(e.rec, "AMG", w.size.offline, e.cfg.seed)
	path := filepath.Join(e.dir, "offline.lttn")
	sum, err := encodeFile(e.rec, path, tr)
	if err != nil {
		return err
	}
	if w.path != "" {
		e.check(sum == w.digest, "offline: two set-ups wrote different traces for seed %d", e.cfg.seed)
	}
	w.path, w.digest, w.want = path, sum, reference(e.rec, tr)
	return ctx.Err()
}

// totalNoise reads total_noise_ns from a noisereport -json summary.
func totalNoise(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var v struct {
		TotalNoiseNS *int64 `json:"total_noise_ns"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return 0, err
	}
	if v.TotalNoiseNS == nil {
		return 0, fmt.Errorf("%s has no total_noise_ns", path)
	}
	return *v.TotalNoiseNS, nil
}

func (w *offline) drive(ctx context.Context, e *env, d time.Duration) (*samples, error) {
	s := &samples{layer: map[string]float64{}}
	var cpu []float64
	out := filepath.Join(e.dir, "report.json")
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		r, err := runChild(ctx, e.prog("noisereport"), "-json", out, w.path)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var got int64
		if err == nil {
			got, err = totalNoise(out)
		}
		e.check(err == nil && got == w.want.noiseNS, "noisereport: total_noise_ns %d, want %d (%v)", got, w.want.noiseNS, err)
		speed, err := e.cal.segment(ctx)
		if err != nil {
			return nil, err
		}
		ms := float64(r.wall) / 1e6 / speed
		s.latencyMS = append(s.latencyMS, ms)
		s.rate = append(s.rate, float64(w.want.events)/ms*1e3)
		s.rssMB = append(s.rssMB, r.rssMB)
		cpu = append(cpu, r.cpuMS())
	}
	s.opWallMS = median(s.latencyMS)
	s.layer["noisereport.cpu_ms"] = median(cpu)
	return s, nil
}

func (w *offline) replay(ctx context.Context, e *env, d time.Duration) (float64, error) {
	out := filepath.Join(e.dir, "report.json")
	workers := runtime.GOMAXPROCS(0)
	return e.rec.replay(ctx, "run", d, func() error {
		var tr *trace.Trace
		var err error
		e.rec.call("tracetool.load", func() { tr, err = tracetool.Load(ctx, w.path, workers) })
		if err != nil {
			return err
		}
		var rep *noise.Report
		e.rec.call("noise.analyze_parallel", func() {
			rep, err = noise.AnalyzeParallel(ctx, tr, noise.DefaultOptions(), workers)
		})
		if err != nil {
			return err
		}
		e.check(rep.TotalNoiseNS == w.want.noiseNS, "in-process offline analysis: total noise %d, want %d", rep.TotalNoiseNS, w.want.noiseNS)
		e.rec.add("noise.spans", float64(len(rep.Spans)))
		e.rec.add("noise.interruptions", float64(len(rep.Interruptions)))
		e.rec.call("report.output", func() { err = writeReport(out, rep) })
		return err
	})
}

// writeReport produces noisereport's default output: the text report and
// the -json summary file.
func writeReport(path string, rep *noise.Report) error {
	renderReport(io.Discard, rep, 10)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = export.WriteReportJSON(f, rep)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *offline) stop() error { return nil }
