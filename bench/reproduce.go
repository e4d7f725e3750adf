package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"io"
	"path/filepath"
	"strconv"
	"time"

	"osnoise/internal/noise"
)

// reproduce is the paper-reproduction path: a closed loop running
// lttng-noise once per application, one child at a time. Each child's
// trace must be byte-identical to the one simulated in-process at setup.
type reproduce struct {
	size   sizes
	want   map[string][32]byte // per app, SHA-256 of the reference trace
	events map[string]float64  // per app, simulated events
}

func newReproduce(s sizes) runner { return &reproduce{size: s} }

func (w *reproduce) setup(ctx context.Context, e *env) error {
	want := map[string][32]byte{}
	events := map[string]float64{}
	for _, app := range apps {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr, _ := synth(e.rec, app, w.size.reproduce, e.cfg.seed)
		h := sha256.New()
		if err := encode(e.rec, h, tr); err != nil {
			return err
		}
		want[app] = [32]byte(h.Sum(nil))
		events[app] = float64(len(tr.Events))
	}
	if w.want != nil {
		same := true
		for app, sum := range want {
			same = same && w.want[app] == sum
		}
		e.check(same, "reproduce: two set-ups simulated different traces for seed %d", e.cfg.seed)
	}
	w.want, w.events = want, events
	return nil
}

func (w *reproduce) drive(ctx context.Context, e *env, d time.Duration) (*samples, error) {
	s := &samples{layer: map[string]float64{}}
	var repWall, repCPU []float64
	dur := w.size.reproduce.String()
	seed := strconv.FormatUint(e.cfg.seed, 10)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		var wallMS, cpu, rss, events float64
		for _, app := range apps {
			out := filepath.Join(e.dir, app+".lttn")
			r, err := runChild(ctx, e.prog("lttng-noise"), "-app", app, "-duration", dur, "-seed", seed, "-trace", out)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if err == nil {
				var got [32]byte
				if got, err = fileDigest(out); err == nil && got != w.want[app] {
					err = errors.New("trace differs from the reference simulation")
				}
			}
			e.check(err == nil, "lttng-noise -app %s -seed %s: %v", app, seed, err)
			speed, err := e.cal.segment(ctx)
			if err != nil {
				return nil, err
			}
			ms := float64(r.wall) / 1e6 / speed
			s.latencyMS = append(s.latencyMS, ms)
			wallMS += ms
			cpu += r.cpuMS()
			rss = max(rss, r.rssMB)
			events += w.events[app]
		}
		s.rate = append(s.rate, events/wallMS*1e3)
		s.rssMB = append(s.rssMB, rss)
		repWall = append(repWall, wallMS)
		repCPU = append(repCPU, cpu)
	}
	s.opWallMS = median(repWall)
	s.layer["lttng-noise.cpu_ms"] = median(repCPU)
	return s, nil
}

func (w *reproduce) replay(ctx context.Context, e *env, d time.Duration) (float64, error) {
	return e.rec.replay(ctx, "rep", d, func() error {
		for _, app := range apps {
			tr, opts := synth(e.rec, app, w.size.reproduce, e.cfg.seed)
			sum, err := encodeFile(e.rec, filepath.Join(e.dir, app+".lttn"), tr)
			if err != nil {
				return err
			}
			e.check(sum == w.want[app], "in-process %s trace differs from the reference", app)
			var rep *noise.Report
			e.rec.call("noise.analyze", func() { rep = noise.Analyze(tr, opts) })
			e.rec.add("noise.spans", float64(len(rep.Spans)))
			e.rec.add("noise.interruptions", float64(len(rep.Interruptions)))
			e.rec.call("report.output", func() { renderReport(io.Discard, rep, 0) })
		}
		return nil
	})
}

func (w *reproduce) stop() error { return nil }
