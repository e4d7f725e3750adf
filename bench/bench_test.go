package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"
	"time"
)

// tinySize runs every workload in a fraction of a second.
var tinySize = sizes{
	reproduce:   20 * time.Millisecond,
	offline:     100 * time.Millisecond,
	smallTraces: 5,
	small:       10 * time.Millisecond,
	smallRate:   200,
	largeTraces: 3,
	large:       50 * time.Millisecond,
	segment:     100 * time.Millisecond,
	setups:      2,
	probe:       20 * time.Millisecond,
}

// bin holds the programs, built once for the package.
var bin string

func TestMain(m *testing.M) {
	// run re-executes this binary to calibrate, as it does the benchmark.
	if len(os.Args) > 1 && os.Args[1] == "-calibrate" {
		fmt.Fprintln(io.Discard, calibrationWork())
		return
	}
	dir, err := os.MkdirTemp("", "bench-programs-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := buildPrograms(context.Background(), "..", dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	bin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestEveryWorkloadEmitsTheSpec runs each workload of BENCHMARK.json at
// a tiny size, untraced and traced, and checks that the outputs were
// correct and that exactly the spec's metrics came out, each in its unit.
// Every per-layer metric must be measured by at least one workload.
func TestEveryWorkloadEmitsTheSpec(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(names)
	sort.Strings(known)
	if fmt.Sprint(names) != fmt.Sprint(known) {
		t.Fatalf("BENCHMARK.json names workloads %v, the benchmark has %v", names, known)
	}

	measured := map[string]bool{}
	for _, w := range sp.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, window: 400 * time.Millisecond, traced: traced,
				repo: "..", work: t.TempDir(), size: tinySize}
			o, err := run(context.Background(), cfg, bin, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if !o.res.Correct || o.res.Failed != 0 || o.res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d", w.Name, traced, o.res.Correct, o.res.Attempted, o.res.Failed)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(o.res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, spec has %d", w.Name, traced, len(o.res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := o.res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
			for name := range o.measured {
				measured[name] = true
			}
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("no workload measures per-layer metric %s", m.Name)
		}
	}
}

// TestWrongReferenceIsCaught corrupts each kind of reference after
// set-up and checks that the drive counts failures against it.
func TestWrongReferenceIsCaught(t *testing.T) {
	corrupt := map[string]func(runner){
		"reproduce": func(d runner) {
			w := d.(*reproduce)
			sum := w.want["AMG"]
			sum[0] ^= 1
			w.want["AMG"] = sum
		},
		"offline": func(d runner) { d.(*offline).want.noiseNS++ },
		"ingest-small": func(d runner) {
			for i := range d.(*ingest).refs {
				d.(*ingest).refs[i].noiseNS++
			}
		},
		"ingest-large": func(d runner) { d.(*ingest).refs[0].events++ },
	}
	for name, spoil := range corrupt {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			cfg := config{workload: name, seed: 3, repo: "..", size: tinySize}
			e := &env{cfg: cfg, bin: bin, dir: t.TempDir(), rec: newRecorder(false), cal: &calibrator{off: true}, out: io.Discard}
			w := workloads[name](tinySize)
			defer w.stop()
			if err := w.setup(ctx, e); err != nil {
				t.Fatal(err)
			}
			if e.failed != 0 {
				t.Fatalf("set-up failed %d checks", e.failed)
			}
			spoil(w)
			if _, err := w.drive(ctx, e, 300*time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if e.failed == 0 {
				t.Errorf("a wrong reference went unnoticed over %d checks", e.attempted)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; statistics.quantiles gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	m := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	wide := []float64{70, 130, 80, 120, 100, 75, 125, 90, 110, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster in every pair", parent, shift(parent, -10), "improved"},
		{"too few pairs to claim", parent[:5], shift(parent[:5], -10), "unchanged"},
		{"slower beyond the bound", parent, shift(parent, 15), "worse"},
		{"slower within the bound", parent, shift(parent, 5), "unchanged"},
		{"spread wider than the bound", wide, shift(wide, 5), "unresolved"},
	} {
		if got := judge(c.parent, c.change, m).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
