package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"osnoise/internal/noise"
	"osnoise/internal/sim"
	"osnoise/internal/trace"
)

// traceDigests pins the SHA-256 of trace.Write's output for every
// profile at two seeds, 200 ms of virtual time each, plus one 1 s UMT
// run: the only case long enough for the collector to drain full
// sub-buffers (8,192 slots per CPU) before the final flush. Any change
// to the simulator, the tracer's collection order or the trace encoding
// moves a digest; a change that means to keep the bytes must leave this
// table untouched.
var traceDigests = []struct {
	app    string
	seed   uint64
	dur    sim.Duration
	digest string
}{
	{"AMG", 1, 200 * sim.Millisecond, "01d539e40efa575bd6e0e7d058defef2882ffc3f15b42eb44199b271a054c30e"},
	{"AMG", 2, 200 * sim.Millisecond, "6216979dd34db5b6d724ed7059b6007abeb912d2ba15bf4d2fe8032970c74208"},
	{"IRS", 1, 200 * sim.Millisecond, "00c3418ae5345a75fe5beada985b9f7f07b4bb63dc4452902d6eaf307d483d69"},
	{"IRS", 2, 200 * sim.Millisecond, "03a6a0d474e777329976923980ea1c814a23f02759250db8e5016ce45ecbd795"},
	{"LAMMPS", 1, 200 * sim.Millisecond, "9f3769f3aef5f0fb8574f8e6b2f9d255d95d7cb5937901585dd1cc2450a14bc9"},
	{"LAMMPS", 2, 200 * sim.Millisecond, "1e18a96f17f46c462d805262db053d41210980a7d3ab6892531b2e2c88888641"},
	{"SPHOT", 1, 200 * sim.Millisecond, "9003d1de70af8f4c45bee7d2b4b943a041eaf282c837bebaae1aef5261904e44"},
	{"SPHOT", 2, 200 * sim.Millisecond, "79f599f86f7ce1669b02a518787c7baf77272938aadb6c0ad510baea908ff68d"},
	{"UMT", 1, 200 * sim.Millisecond, "048beb0a70d2a06dc4b8942cfc9552a8f269b78f8ef38325e4aa125e2c6a383b"},
	{"UMT", 2, 200 * sim.Millisecond, "e0022edfaa831784cc4dec92ec676cd4085c16ced704d6c7e40bd98cbd2a186e"},
	{"FTQ", 1, 200 * sim.Millisecond, "f7e272fac9cb06ad194700fb7c3ab6d46341a003d6725fa881fda62ceea15468"},
	{"FTQ", 2, 200 * sim.Millisecond, "43648036e84572240d938364b63ad02e5995c5e33944cd237068fd386648d619"},
	{"UMT", 3, 1000 * sim.Millisecond, "db54ba1d49839785d3bb70eb58f29dd88273c2c21a2f06bee29ea506e86312fb"},
}

// TestTraceDigests simulates each pinned profile and seed and compares
// the digest of the encoded trace with the table.
func TestTraceDigests(t *testing.T) {
	for _, c := range traceDigests {
		t.Run(fmt.Sprintf("%s/%d/%v", c.app, c.seed, c.dur), func(t *testing.T) {
			t.Parallel()
			tr := New(ByName(c.app), Options{Duration: c.dur, Seed: c.seed}).Execute()
			h := sha256.New()
			if err := trace.Write(h, tr); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
				t.Errorf("trace digest %s (%d events), want %s", got, len(tr.Events), c.digest)
			}
		})
	}
}

// reportDigests pins the SHA-256 of reportDigest over
// noise.Analyze(tr, run.AnalysisOptions()) for the same profiles, seeds
// and durations as traceDigests. Any change to the analysis rules, the
// order spans are recorded in, the floating-point accumulation or the
// interruption grouping moves a digest; a change that means to keep the
// report must leave this table untouched.
var reportDigests = []struct {
	app    string
	seed   uint64
	dur    sim.Duration
	digest string
}{
	{"AMG", 1, 200 * sim.Millisecond, "f75f7aadd1b0ddfcd3c23f1be7140e45de789e68ab043042357a695e47faa802"},
	{"AMG", 2, 200 * sim.Millisecond, "34b99621ed50cfd9322a3ad348589d962864d8346aadf629c6e152c6f8c8c9c7"},
	{"IRS", 1, 200 * sim.Millisecond, "760bd21ca925fea39cb57bf090c100d28e3d0123f5ba4e078936150b811727f0"},
	{"IRS", 2, 200 * sim.Millisecond, "9d8118f5f00554c89906231d49751af7e0639a652c7fe0c54f279a3c32466aff"},
	{"LAMMPS", 1, 200 * sim.Millisecond, "50ba93c2191d044cf3400a0ffddc9f3d0b1e5d333377f59dba2be0beefa8b312"},
	{"LAMMPS", 2, 200 * sim.Millisecond, "1ba7c8271d4d9be13395ece6f376c42d9f3140fb7ba66f6c1e7a07184470ac8b"},
	{"SPHOT", 1, 200 * sim.Millisecond, "a0e32959316a8bfe99ab370c2dc6b767de443169913c2cb14fc013c546407ecf"},
	{"SPHOT", 2, 200 * sim.Millisecond, "016702c1682c7419ce61235028438746149d84b8387fdf605d81522d7b9188b7"},
	{"UMT", 1, 200 * sim.Millisecond, "2e53b55e252afef12e6392bb62d925425b34998b4483489379ca7b55cd379e10"},
	{"UMT", 2, 200 * sim.Millisecond, "800afc9c0d5ce4fafb282572ac215f0760df902c59072301bf74b026573482cd"},
	{"FTQ", 1, 200 * sim.Millisecond, "b83859aae7c05c2478c5782ab4db507089b16659451cc46eb60b906be25c5873"},
	{"FTQ", 2, 200 * sim.Millisecond, "db8a61731af35e3bee1eb18489202b42a1622f3b59da5bf95273b5d1749f595a"},
	{"UMT", 3, 1000 * sim.Millisecond, "8a90a51a7297f6367edd2b8245294f7dbc14f65f94839df5b37e058c604d28eb"},
}

// TestReportDigests simulates each pinned profile and seed, analyses
// the trace with the run's own options and compares the digest of the
// report with the table.
func TestReportDigests(t *testing.T) {
	for _, c := range reportDigests {
		t.Run(fmt.Sprintf("%s/%d/%v", c.app, c.seed, c.dur), func(t *testing.T) {
			t.Parallel()
			run := New(ByName(c.app), Options{Duration: c.dur, Seed: c.seed})
			rep := noise.Analyze(run.Execute(), run.AnalysisOptions())
			if got := reportDigest(rep); got != c.digest {
				t.Errorf("report digest %s (%d spans, %d interruptions), want %s",
					got, len(rep.Spans), len(rep.Interruptions), c.digest)
			}
		})
	}
}

// digestWriter feeds fixed-width little-endian words into a hash.
type digestWriter struct {
	h   hash.Hash
	buf []byte
}

func (w *digestWriter) u64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	if len(w.buf) >= 1<<16 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *digestWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *digestWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *digestWriter) flag(v bool) {
	if v {
		w.u64(1)
	} else {
		w.u64(0)
	}
}

// reportDigest returns the hex SHA-256 of a fixed encoding of every
// Report field, in declaration order: the header and counters, every
// span, every key's Count, Sum, Min, Max, the bits of Mean and StdDev
// (the Welford moments are unexported) and its Durations, the
// Breakdown, and every interruption with its components. Slices are
// length-prefixed, floats are encoded by their bits.
func reportDigest(r *noise.Report) string {
	w := &digestWriter{h: sha256.New()}
	w.f64(r.Seconds)
	w.i64(int64(r.CPUs))
	w.i64(int64(len(r.Spans)))
	for _, s := range r.Spans {
		w.i64(int64(s.Key))
		w.i64(int64(s.CPU))
		w.i64(s.Start)
		w.i64(s.Wall)
		w.i64(s.Own)
		w.i64(s.PID)
		w.i64(s.Culprit)
		w.flag(s.Noise)
	}
	for _, ks := range r.PerKey {
		w.i64(int64(ks.Key))
		w.u64(ks.Summary.Count)
		w.f64(ks.Summary.Sum)
		w.i64(ks.Summary.Min)
		w.i64(ks.Summary.Max)
		w.f64(ks.Summary.Mean())
		w.f64(ks.Summary.StdDev())
		w.i64(int64(len(ks.Durations)))
		for _, d := range ks.Durations {
			w.i64(d)
		}
	}
	for _, ns := range r.Breakdown {
		w.i64(ns)
	}
	w.i64(int64(len(r.Interruptions)))
	for _, in := range r.Interruptions {
		w.i64(int64(in.CPU))
		w.i64(in.Start)
		w.i64(in.End)
		w.i64(in.Total)
		w.i64(int64(len(in.Components)))
		for _, c := range in.Components {
			w.i64(int64(c.Key))
			w.i64(c.Start)
			w.i64(c.Own)
		}
	}
	w.i64(r.TotalNoiseNS)
	w.i64(int64(r.Dropped))
	w.flag(r.Incomplete)
	w.u64(r.EventsConsumed)
	w.i64(int64(r.CPUsFinished))
	w.i64(int64(r.InterruptionsTotal))
	w.flag(r.InterruptionsSampled)
	w.h.Write(w.buf)
	return hex.EncodeToString(w.h.Sum(nil))
}
