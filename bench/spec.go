package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// names, units, directions and regression bounds.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workSpec   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

// workSpec names one workload.
type workSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec fixes one metric's unit, direction and (end-to-end only)
// the share of the parent's median by which it may worsen.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads and sanity-checks BENCHMARK.json.
func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better must be lower or higher, not %q", path, m.Name, m.Better)
		}
	}
	return &s, nil
}

// metric is one measured value as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns exactly the metrics want names, failing when the
// benchmark did not produce one of them or produced it in another unit.
func pick(got map[string]metric, want []metricSpec) (map[string]metric, error) {
	out := make(map[string]metric, len(want))
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.Unit != w.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, spec says %s", w.Name, m.Unit, w.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value (too few samples?)", w.Name)
		}
		out[w.Name] = m
	}
	return out, nil
}
