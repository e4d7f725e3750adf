package main

import (
	"context"
	"os"
	"sort"
)

// The machines this benchmark runs on are shared, and their speed for
// the programs under test drifts by tens of percent, from one second to
// the next as well as over minutes. A fixed calibration workload run in
// a child process, like the programs, slows down with them, and the more
// closely in time the two run, the more closely it follows. So the drives
// alternate segments of work with short calibrations, and divide the times
// measured in each segment by the calibration index around it.

// calibrationRecords sizes the calibration workload: 10 MB of records,
// about 0.1 s of work.
const calibrationRecords = 1 << 18

// calibrationRefMS is the calibration's median time, in milliseconds, on
// the host the bounds were set on; a calibration's index is its time over
// this.
const calibrationRefMS = 100

// calibrationWork is the calibration workload: it fills
// calibrationRecords records from a fixed generator, sorts them and
// folds them into a map, the mix of allocation, sorting and hashing the
// programs do. The code is the benchmark's own, so no change to the
// repository moves it.
func calibrationWork() int {
	type rec struct {
		ts, a, b, c int64
		id          int32
	}
	rs := make([]rec, calibrationRecords)
	x := uint64(7)
	for i := range rs {
		x = x*6364136223846793005 + 1442695040888963407
		rs[i] = rec{ts: int64(x >> 20), a: int64(i), id: int32(x >> 50)}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].ts < rs[j].ts })
	gaps := map[int32]int64{}
	for i := 1; i < len(rs); i++ {
		gaps[rs[i].id] += rs[i].ts - rs[i-1].ts
	}
	return len(gaps)
}

// calibrator runs the calibration, each time in a fresh child process
// (this executable with -calibrate). When off, as in the traced run, it
// runs nothing and every index reads 1.
type calibrator struct {
	off  bool
	last float64   // index of the latest calibration
	all  []float64 // every index so far
}

// measure calibrates once.
func (c *calibrator) measure(ctx context.Context) error {
	if c.off {
		c.last = 1
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	r, err := runChild(ctx, exe, "-calibrate")
	if err != nil {
		return err
	}
	c.last = float64(r.wall) / 1e6 / calibrationRefMS
	c.all = append(c.all, c.last)
	return nil
}

// segment ends a segment of work: it calibrates and returns the index of
// the segment, the mean of the calibrations just before and just after
// it. Times measured in the segment are divided by it.
func (c *calibrator) segment(ctx context.Context) (float64, error) {
	before := c.last
	if err := c.measure(ctx); err != nil {
		return 0, err
	}
	return (before + c.last) / 2, nil
}

// index is the median index of the run, for the result header: above 1
// the host ran slower than the one the bounds were set on.
func (c *calibrator) index() float64 {
	if len(c.all) == 0 {
		return 1
	}
	return median(c.all)
}
