// Command bench is the repository benchmark. It drives the real
// programs (lttng-noise, noisereport, noised) over inputs generated from
// a seed, checks every answer against a reference computed in-process,
// and prints the end-to-end metrics. With -trace 1 it instead replays the
// same inputs in-process, with spans around the calls into each layer's
// public functions, and prints the per-layer metrics. README.md describes
// the workloads and metrics; BENCHMARK.json at the repository root fixes
// their units, directions and regression bounds.
//
// Usage, from the repository root (run.sh builds this command first):
//
//	bash bench/run.sh -workload offline -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload offline -seed 1 -seconds 20 -trace 1 -spans spans.json
//	bash bench/run.sh -workload offline -seed 1 -out parent.jsonl
//	bash bench/run.sh -compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. Exit codes: 0 when every output was
// correct, 1 when some output mismatched its reference (the result is
// still printed), 2 when the benchmark could not run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"osnoise/internal/ftq"
)

// sizes are the input sizes and repetition counts of the workloads.
type sizes struct {
	reproduce   time.Duration // virtual length of each lttng-noise run
	offline     time.Duration // virtual length of the offline trace
	smallTraces int           // distinct traces ingest-small sends
	small       time.Duration // virtual length of each of them
	smallRate   float64       // ingest-small arrivals per second
	largeTraces int           // distinct traces ingest-large sends
	large       time.Duration // virtual length of each of them
	// segment is how long the ingest drives work between two host-speed
	// calibrations; the other drives calibrate after every operation.
	segment time.Duration
	setups  int           // set-ups per untraced run; setup_s is their median
	probe   time.Duration // host FTQ probe length
}

// fullSize is what the benchmark measures. README.md gives the reasons
// for each number.
var fullSize = sizes{
	reproduce:   3 * time.Second,
	offline:     12 * time.Second,
	smallTraces: 40,
	small:       50 * time.Millisecond,
	smallRate:   400,
	largeTraces: 10,
	large:       time.Second,
	segment:     500 * time.Millisecond,
	setups:      3,
	probe:       time.Second,
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	window   time.Duration // measured time
	traced   bool
	repo     string // repository root
	work     string // built programs and per-run inputs
	size     sizes
}

// env is what a workload sees while it runs.
type env struct {
	cfg config
	bin string    // directory holding the built programs
	dir string    // this run's inputs and outputs
	rec *recorder // spans of the traced run; records nothing otherwise
	cal *calibrator
	out io.Writer // progress lines and mismatch reports

	mu        sync.Mutex
	attempted int64
	failed    int64
}

// check counts one attempted operation, failed unless ok, and reports
// the first few failures.
func (e *env) check(ok bool, format string, args ...any) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.attempted++
	if !ok {
		e.failed++
		if e.failed <= 10 {
			fmt.Fprintf(e.out, "MISMATCH: "+format+"\n", args...)
		}
	}
	return ok
}

// prog returns the path of a built program.
func (e *env) prog(name string) string { return filepath.Join(e.bin, name) }

// samples are what a workload's drive measured. Latencies and rates are
// divided and multiplied by the host speed index of the segment they were
// measured in.
type samples struct {
	latencyMS []float64 // one per operation
	// rate is events/s per operation of a closed loop. An open loop
	// leaves it empty: its events over elapsed is the load it offered.
	rate    []float64
	events  float64       // events answered
	elapsed time.Duration // from the first send to the last answer
	rssMB   []float64     // peak RSS of the program under test
	// opWallMS is the median wall time of one operation in the unit the
	// traced replay uses (a rep, a noisereport run); 0 when none applies.
	opWallMS float64
	// p50 latency per transport, for the receiver overhead metrics.
	nativeP50, httpP50 float64
	// layer holds the per-layer metrics only the real programs can give
	// (rusage, wire answers, generator lag), by metric name.
	layer map[string]float64
}

// errNoWindow reports a drive that measured nothing.
var errNoWindow = errors.New("no operation completed inside the measured window")

// runner is one workload: a set of inputs and the way the benchmark
// drives them.
type runner interface {
	// setup generates the inputs and their reference answers and starts
	// any long-running program; run calls it several times, with stop
	// between, and reports the median as setup_s.
	setup(ctx context.Context, e *env) error
	// drive measures the real programs for d; it stops what setup started.
	drive(ctx context.Context, e *env, d time.Duration) (*samples, error)
	// replay repeats the work in-process for d under e.rec and returns
	// the tracing overhead ratio.
	replay(ctx context.Context, e *env, d time.Duration) (float64, error)
	// stop ends what setup started; it is safe to call more than once.
	stop() error
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(sizes) runner{
	"reproduce":    newReproduce,
	"offline":      newOffline,
	"ingest-small": newIngestSmall,
	"ingest-large": newIngestLarge,
}

// host describes the machine a result was measured on.
type host struct {
	NProc            int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	GoVersion        string  `json:"go_version"`
	Commit           string  `json:"commit"`
	FTQNoiseFraction float64 `json:"ftq_noise_fraction"`
	// FTQOpNanos is the probe's calibrated cost of one basic operation.
	FTQOpNanos float64 `json:"ftq_op_ns"`
	// SpeedIndex is the median calibration time over its reference time:
	// above 1 the host ran slower than the one the bounds were set on.
	SpeedIndex float64 `json:"speed_index"`
}

// probeHost runs the native FTQ probe for d and fills in the header. The
// host's own noise fraction tells a slow run on a noisy host from a
// regression.
func probeHost(repo string, d time.Duration) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if _, err := os.Stat(filepath.Join(repo, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", repo, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	res := ftq.RunNative(ftq.NativeConfig{Duration: d})
	h.FTQOpNanos = res.OpNanos
	var missing int64
	for _, s := range res.Samples {
		missing += s.Missing
	}
	if res.Duration > 0 {
		h.FTQNoiseFraction = float64(missing) * res.OpNanos / float64(res.Duration.Nanoseconds())
	}
	return h
}

// buildPrograms builds the programs the benchmark drives into dir.
func buildPrograms(ctx context.Context, repo, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/lttng-noise", "./cmd/noisereport", "./cmd/noised")
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the programs: %w\n%s", err, out)
	}
	return nil
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is a finished run.
type outcome struct {
	host  host
	res   result
	spans *recorder
	// measured names the per-layer metrics the workload reached; the
	// others read 0.
	measured map[string]bool
}

// run performs one benchmark run with the programs built into bin: probe
// the host, set up (several times when untraced), then drive or replay
// for cfg.window.
func run(ctx context.Context, cfg config, bin string, out io.Writer) (*outcome, error) {
	sp, err := loadSpec(filepath.Join(cfg.repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	h := probeHost(cfg.repo, cfg.size.probe)
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s commit=%s host_ftq_noise=%.5f host_ftq_op_ns=%.4f\n",
		cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.traced, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Commit, h.FTQNoiseFraction, h.FTQOpNanos)

	e := &env{cfg: cfg, bin: bin, dir: dir, rec: newRecorder(cfg.traced), cal: &calibrator{off: cfg.traced}, out: out}
	w := mk(cfg.size)
	defer w.stop()
	setups := cfg.size.setups
	if cfg.traced {
		setups = 1
	}
	if err := e.cal.measure(ctx); err != nil {
		return nil, err
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if err := w.stop(); err != nil {
			return nil, err
		}
		t := time.Now()
		root := e.rec.begin("setup")
		err := w.setup(ctx, e)
		e.rec.end(root)
		took := time.Since(t).Seconds()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		speed, err := e.cal.segment(ctx)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, took/speed)
	}
	e.rec.on = false

	got := map[string]metric{}
	want := sp.EndToEnd
	var measured map[string]bool
	if !cfg.traced {
		s, err := w.drive(ctx, e, cfg.window)
		if err != nil {
			return nil, err
		}
		h.SpeedIndex = e.cal.index()
		fmt.Fprintf(out, "# host speed index %.4f (median of %d calibrations / %g ms); each time below is divided by the index around its segment\n",
			h.SpeedIndex, len(e.cal.all), float64(calibrationRefMS))
		endToEnd(got, s, setupS)
	} else {
		s, err := w.drive(ctx, e, cfg.window/2)
		if err != nil {
			return nil, err
		}
		ratio, err := w.replay(ctx, e, cfg.window/2)
		if err != nil {
			return nil, err
		}
		measured = perLayer(got, s, e.rec, ratio, h)
		want = sp.PerLayer
	}
	m, err := pick(got, want)
	if err != nil {
		return nil, err
	}
	return &outcome{host: h, spans: e.rec, measured: measured,
		res: result{Correct: e.failed == 0, Attempted: e.attempted, Failed: e.failed, Metrics: m}}, nil
}

// endToEnd derives the end-to-end metrics from an untraced drive and the
// set-up times, both already divided by the host speed index.
func endToEnd(m map[string]metric, s *samples, setupS []float64) {
	rate := median(s.rate)
	if len(s.rate) == 0 {
		rate = s.events / s.elapsed.Seconds()
	}
	m["setup_s"] = metric{median(setupS), "s"}
	m["events_per_s"] = metric{rate, "1/s"}
	m["latency_p50_ms"] = metric{quantile(s.latencyMS, 0.50), "ms"}
	m["latency_p90_ms"] = metric{quantile(s.latencyMS, 0.90), "ms"}
	m["peak_rss_mb"] = metric{median(s.rssMB), "MB"}
}

// layerUnits lists every per-layer metric the benchmark can produce, with
// its unit. A metric a workload never reaches reads 0.
var layerUnits = map[string]string{
	"workload.execute_ms":             "ms",
	"workload.events":                 "count",
	"trace.write_ms":                  "ms",
	"trace.load_ms":                   "ms",
	"trace.decode_ms":                 "ms",
	"noise.analyze_ms":                "ms",
	"noise.analyze_parallel_ms":       "ms",
	"noise.analyze_stream_ms":         "ms",
	"noise.analyze.alloc_mb":          "MB",
	"noise.analyze_parallel.alloc_mb": "MB",
	"noise.analyze_stream.alloc_mb":   "MB",
	"noise.spans":                     "count",
	"noise.interruptions":             "count",
	"noise.window_add_us":             "us",
	"report.output_ms":                "ms",
	"report.residual_ms":              "ms",
	"router.ingest_ms":                "ms",
	"tenant.overhead_us":              "us",
	"router.flush_ms":                 "ms",
	"sink.scrape_ms":                  "ms",
	"receiver.native_overhead_ms":     "ms",
	"receiver.http_overhead_ms":       "ms",
	"noised.cpu_ms_per_stream":        "ms",
	"noised.sys_share":                "ratio",
	"noisereport.cpu_ms":              "ms",
	"lttng-noise.cpu_ms":              "ms",
	"answers.sampled":                 "count",
	"answers.err.proto":               "count",
	"answers.err.bad-trace":           "count",
	"answers.err.evicted":             "count",
	"answers.err.cancelled":           "count",
	"answers.err.internal":            "count",
	"gen.lag_p99_ms":                  "ms",
	"gen.invalid_windows":             "count",
	"host.ftq_noise_fraction":         "ratio",
	"trace.overhead_ratio":            "ratio",
}

// residualLayers are the layers whose spans report.residual_ms subtracts
// from the wall time of one operation of the real program.
var residualLayers = map[string]bool{"workload": true, "trace": true, "tracetool": true, "noise": true}

// spanMetrics maps each per-layer time metric to the span it reads: the
// median over operations of the span's self time in one operation.
var spanMetrics = map[string]string{
	"workload.execute_ms":       "workload.execute",
	"trace.write_ms":            "trace.write",
	"trace.load_ms":             "tracetool.load",
	"trace.decode_ms":           "trace.decode",
	"noise.analyze_ms":          "noise.analyze",
	"noise.analyze_parallel_ms": "noise.analyze_parallel",
	"noise.analyze_stream_ms":   "noise.analyze_stream",
	"noise.window_add_us":       "noise.window_add",
	"report.output_ms":          "report.output",
	"router.ingest_ms":          "router.ingest",
	"router.flush_ms":           "router.flush",
	"sink.scrape_ms":            "sink.scrape",
}

// perLayer derives the per-layer metrics from a traced run: the span
// table, the drive's samples and the host probe. It returns the names of
// the metrics the workload reached; the others read 0.
func perLayer(m map[string]metric, s *samples, rec *recorder, ratio float64, h host) map[string]bool {
	vals := map[string]float64{}
	for name, v := range s.layer {
		vals[name] = v
	}
	st := rec.stats()
	perOp := map[string]float64{}
	for _, x := range st {
		perOp[x.Name] = x.PerOp
	}
	for name, sp := range spanMetrics {
		if v, ok := perOp[sp]; ok {
			if strings.HasSuffix(name, "_us") {
				v *= 1e3
			}
			vals[name] = v
		}
	}
	for name := range rec.values {
		vals[name] = rec.value(name)
	}
	if ri, ok := perOp["router.ingest"]; ok {
		vals["tenant.overhead_us"] = (ri - perOp["noise.analyze_stream"]) * 1e3
		if s.nativeP50 > 0 {
			vals["receiver.native_overhead_ms"] = s.nativeP50 - ri
		}
		if s.httpP50 > 0 {
			vals["receiver.http_overhead_ms"] = s.httpP50 - ri
		}
	}
	if s.opWallMS > 0 {
		residual := s.opWallMS
		for _, x := range st {
			if layer, _, _ := strings.Cut(x.Name, "."); residualLayers[layer] && !x.SetupOnly {
				residual -= x.PerOp
			}
		}
		vals["report.residual_ms"] = residual
	}
	vals["host.ftq_noise_fraction"] = h.FTQNoiseFraction
	vals["trace.overhead_ratio"] = ratio
	measured := map[string]bool{}
	for name := range vals {
		measured[name] = true
	}
	for name, unit := range layerUnits {
		m[name] = metric{vals[name], unit}
	}
	return measured
}

// record is one result as -out appends it, the input of -compare.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Host     host    `json:"host"`
	Result   result  `json:"result"`
}

// appendRecord adds one JSON line to path.
func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	var (
		wl       = flag.String("workload", "", "workload: reproduce, offline, ingest-small or ingest-large")
		seed     = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", 0, "measured seconds (0 = run_seconds from BENCHMARK.json)")
		traced   = flag.Int("trace", 0, "1 replays in-process with spans and prints the per-layer metrics")
		spansOut = flag.String("spans", "", "traced run: write every span and the span table here as JSON")
		outFile  = flag.String("out", "", "append this run's result as one JSON line here, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: parent, then change")
		calib    = flag.Bool("calibrate", false, "run the host-speed calibration workload once and exit (the benchmark runs itself this way)")
		repo     = flag.String("repo", ".", "repository root")
	)
	flag.Parse()
	if *calib {
		fmt.Fprintln(io.Discard, calibrationWork())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare parent.jsonl change.jsonl")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, filepath.Join(*repo, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() != 0 || *wl == "" || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench -workload NAME [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-out FILE]")
		os.Exit(2)
	}
	work := filepath.Join(*repo, ".bench_build", "work")
	cfg := config{workload: *wl, seed: *seed, traced: *traced == 1, repo: *repo, work: work, size: fullSize}
	if *seconds > 0 {
		cfg.window = time.Duration(*seconds * float64(time.Second))
	} else if sp, err := loadSpec(filepath.Join(*repo, "BENCHMARK.json")); err == nil {
		cfg.window = time.Duration(sp.RunSeconds) * time.Second
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bin := filepath.Join(work, "bin")
	err := buildPrograms(ctx, *repo, bin)
	var o *outcome
	if err == nil {
		// A run takes the window plus about ten seconds; the deadline
		// kills the programs and ends the run if one of them hangs.
		rctx, cancel := context.WithTimeout(ctx, 2*cfg.window+90*time.Second)
		o, err = run(rctx, cfg, bin, os.Stdout)
		cancel()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if cfg.traced {
		printStats(os.Stdout, o.spans.stats())
		if *spansOut != "" {
			if err := writeSpans(*spansOut, o.spans); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}
	}
	names := make([]string, 0, len(o.res.Metrics))
	for name := range o.res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-34s %16.6g %s\n", name, o.res.Metrics[name].Value, o.res.Metrics[name].Unit)
	}
	if *outFile != "" {
		rec := record{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Trace: cfg.traced, Host: o.host, Result: o.res}
		if err := appendRecord(*outFile, rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
	}
	line, err := json.Marshal(o.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !o.res.Correct {
		os.Exit(1)
	}
}
