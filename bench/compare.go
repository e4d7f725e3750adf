package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords loads the untraced records of an -out file, by workload,
// in the order they were appended.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// minPairs is the fewest alternating pairs a claimed gain rests on.
const minPairs = 10

// judgement compares a change with its parent on one metric.
type judgement struct {
	pairs, wins int
	verdict     string // improved, unchanged, worse or unresolved
}

// judge compares the runs of a change with those of its parent. The i-th
// runs of the two sides form a pair; the runs should alternate which
// side runs first. A gain needs at least minPairs pairs, a win in at
// least nine tenths of them (ties count for neither) and a median
// difference larger than the parent's interquartile range. Where the
// parent's spread is wider than the bound, the metric is unresolved
// unless every change run beats every parent run; otherwise a median
// worse by more than the bound is a regression.
func judge(parent, change []float64, m metricSpec) judgement {
	sign := 1.0
	if m.Better == "lower" {
		sign = -1
	}
	j := judgement{pairs: min(len(parent), len(change))}
	for i := 0; i < j.pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			j.wins++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && sign*(c-p) > 0
		}
	}
	pm := median(parent)
	gain := sign * (median(change) - pm)
	q1, q3 := quartiles(parent)
	switch {
	case j.pairs >= minPairs && j.wins*10 >= 9*j.pairs && gain > q3-q1:
		j.verdict = "improved"
	case (q3-q1)/math.Abs(pm) > m.Bound && !allBetter:
		j.verdict = "unresolved"
	case -gain > m.Bound*math.Abs(pm):
		j.verdict = "worse"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// runCompare prints one row per workload and end-to-end metric comparing
// two -out files.
func runCompare(w io.Writer, specPath, parentPath, changePath string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	values := func(rs []record, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if m, ok := r.Result.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-13s %-15s %6s %12s %12s %12s %6s %5s  %s\n",
		"workload", "metric", "bound", "parent_p50", "parent_iqr", "change_p50", "pairs", "wins", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			p, c := values(parent[wl.Name], m.Name), values(change[wl.Name], m.Name)
			if len(p) < 2 || len(c) < 1 {
				fmt.Fprintf(w, "%-13s %-15s %6.2f %12s %12s %12s %6d %5s  unresolved (too few runs)\n",
					wl.Name, m.Name, m.Bound, "-", "-", "-", min(len(p), len(c)), "-")
				continue
			}
			q1, q3 := quartiles(p)
			j := judge(p, c, m)
			fmt.Fprintf(w, "%-13s %-15s %6.2f %12.5g %12.5g %12.5g %6d %5d  %s\n",
				wl.Name, m.Name, m.Bound, median(p), q3-q1, median(c), j.pairs, j.wins, j.verdict)
		}
	}
	return nil
}
