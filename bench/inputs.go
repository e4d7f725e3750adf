package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"time"

	"osnoise/internal/noise"
	"osnoise/internal/sim"
	"osnoise/internal/trace"
	"osnoise/internal/workload"
)

// apps are the five Sequoia applications of the paper, in the order every
// workload cycles through them.
var apps = []string{"AMG", "IRS", "LAMMPS", "SPHOT", "UMT"}

// synth simulates app for dur exactly as lttng-noise does, returning the
// trace and the analysis options lttng-noise uses for it.
func synth(rec *recorder, app string, dur time.Duration, seed uint64) (*trace.Trace, noise.Options) {
	var tr *trace.Trace
	var opts noise.Options
	rec.call("workload.execute", func() {
		run := workload.New(workload.ByName(app), workload.Options{Duration: sim.Duration(dur.Nanoseconds()), Seed: seed})
		tr = run.Execute()
		opts = run.AnalysisOptions()
	})
	rec.add("workload.events", float64(len(tr.Events)))
	return tr, opts
}

// encode writes tr in the binary trace format to w.
func encode(rec *recorder, w io.Writer, tr *trace.Trace) error {
	var err error
	rec.call("trace.write", func() { err = trace.Write(w, tr) })
	return err
}

// encodeFile writes tr to path, as lttng-noise -trace does, and returns
// the file's SHA-256.
func encodeFile(rec *recorder, path string, tr *trace.Trace) ([32]byte, error) {
	f, err := os.Create(path)
	if err != nil {
		return [32]byte{}, err
	}
	err = encode(rec, f, tr)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return [32]byte{}, err
	}
	return fileDigest(path)
}

// fileDigest returns the SHA-256 of a file.
func fileDigest(path string) ([32]byte, error) {
	var sum [32]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// reference computes the totals every program must answer for tr, with
// the sequential analyzer and the default options noisereport and noised
// use.
func reference(rec *recorder, tr *trace.Trace) ref {
	var rep *noise.Report
	rec.call("noise.analyze", func() { rep = noise.Analyze(tr, noise.DefaultOptions()) })
	return ref{events: rep.EventsConsumed, noiseNS: rep.TotalNoiseNS}
}

// renderReport writes the text report noisereport prints (lttng-noise
// prints the same without the top interruptions, top = 0).
func renderReport(w io.Writer, rep *noise.Report, top int) {
	var b bytes.Buffer
	b.WriteString(rep.BreakdownString())
	for k := noise.Key(0); k < noise.NumKeys; k++ {
		if rep.Stats(k).Summary.Count > 0 {
			b.WriteString(rep.TableRow(k))
			b.WriteByte('\n')
		}
	}
	if top > 0 {
		for _, in := range rep.TopInterruptions(top) {
			fmt.Fprintf(&b, "  cpu%d @ %12.6f s: %s\n", in.CPU, float64(in.Start)/1e9, in.Describe())
		}
	}
	_, _ = w.Write(b.Bytes())
}
