package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"osnoise/internal/daemon/router"
	"osnoise/internal/daemon/sink"
	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// ingest drives noised with traces generated at setup. ingest-small
// (large == false) is an open loop of many small streams over one
// NOISED/1 and one HTTP connection; ingest-large is a closed loop of
// large streams over one NOISED/1 connection. Every answer must carry
// the reference event count and noise total of the trace sent.
type ingest struct {
	size   sizes
	large  bool
	traces [][]byte
	refs   []ref
	digest [32]byte
	d      *daemon
}

func newIngestSmall(s sizes) runner { return &ingest{size: s} }
func newIngestLarge(s sizes) runner { return &ingest{size: s, large: true} }

// lagLimit is the generator lateness beyond which an open-loop window is
// invalid: the load was not offered on schedule.
const lagLimit = time.Millisecond

// nativeTenant is the one tenant the NOISED/1 connection speaks for;
// httpTenants more share the HTTP connection, chosen by a Zipf law.
const (
	nativeTenant = "native"
	httpTenants  = 63
)

// flushEveryLarge is how many ingest-large streams the traced replay
// ingests between flushes: about one second's worth at the rate noised
// sustains on two cores.
const flushEveryLarge = 100

func (w *ingest) setup(ctx context.Context, e *env) error {
	n, dur := w.size.smallTraces, w.size.small
	if w.large {
		n, dur = w.size.largeTraces, w.size.large
	}
	rng := rand.New(rand.NewPCG(e.cfg.seed, 1))
	traces := make([][]byte, n)
	refs := make([]ref, n)
	h := sha256.New()
	for i := range traces {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr, _ := synth(e.rec, apps[i%len(apps)], dur, rng.Uint64())
		var b bytes.Buffer
		if err := encode(e.rec, &b, tr); err != nil {
			return err
		}
		traces[i] = b.Bytes()
		refs[i] = reference(e.rec, tr)
		h.Write(traces[i])
	}
	sum := [32]byte(h.Sum(nil))
	if w.traces != nil {
		e.check(sum == w.digest, "ingest: two set-ups generated different traces for seed %d", e.cfg.seed)
	}
	w.traces, w.refs, w.digest = traces, refs, sum
	d, err := startNoised(ctx, e.prog("noised"), filepath.Join(e.dir, "sink.lp"))
	if err != nil {
		return err
	}
	w.d = d
	return nil
}

func (w *ingest) stop() error {
	if w.d == nil {
		return nil
	}
	_, err := w.d.stop()
	w.d = nil
	return err
}

// arrival is one scheduled send of ingest-small.
type arrival struct {
	due    time.Duration // from the start of the window
	trace  int
	tenant string
	native bool
	scrape bool // a GET /metrics on the HTTP connection instead of a trace
}

// smallSchedule draws ingest-small's arrivals for a window of d: Poisson
// at rate per second, half over NOISED/1 and half over HTTP spread across
// Zipf-distributed tenants, plus one /metrics scrape per second.
func smallSchedule(seed uint64, rate float64, d time.Duration, ntraces int) []arrival {
	rng := rand.New(rand.NewPCG(seed, 2))
	zipf := rand.NewZipf(rng, 1.1, 1, httpTenants-1)
	var out []arrival
	next := time.Second
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * 1e9)
		for next <= t && next < d {
			out = append(out, arrival{due: next, scrape: true})
			next += time.Second
		}
		if t >= d {
			return out
		}
		a := arrival{due: t, trace: rng.IntN(ntraces), tenant: nativeTenant, native: true}
		if rng.IntN(2) == 1 {
			a.native, a.tenant = false, fmt.Sprintf("t%02d", zipf.Uint64())
		}
		out = append(out, a)
	}
}

// done is one answered stream.
type done struct {
	due     time.Duration // scheduled (open loop) or actual (closed loop) send time
	latency time.Duration // from due to the answer
	events  float64       // events the answer reported
	native  bool
}

// tally is what one client connection saw.
type tally struct {
	done    []done
	events  float64
	answers map[string]float64 // answers.* metric name → count
	last    time.Duration      // when the last answer arrived
}

// record checks an answer against its reference and counts it.
func (t *tally) record(e *env, a answer, want ref, d done) {
	e.check(a.matches(want), "noised answer %+v, want events=%d noise_ns=%d", a, want.events, want.noiseNS)
	if t.answers == nil {
		t.answers = map[string]float64{}
	}
	if a.code != "" {
		t.answers["answers.err."+a.code]++
	}
	if a.sampled {
		t.answers["answers.sampled"]++
	}
	d.events = float64(a.events)
	t.events += d.events
	t.done = append(t.done, d)
	t.last = max(t.last, d.due+d.latency)
}

// scale divides the latency of every stream answered since the first
// from by the host speed index of their segment.
func (t *tally) scale(from int, speed float64) {
	for i := from; i < len(t.done); i++ {
		t.done[i].latency = time.Duration(float64(t.done[i].latency) / speed)
	}
}

func (w *ingest) drive(ctx context.Context, e *env, d time.Duration) (*samples, error) {
	var tallies []*tally
	var lags []done
	var err error
	if w.large {
		var t *tally
		t, err = w.closedLoop(ctx, e, d)
		tallies = append(tallies, t)
	} else {
		tallies, lags, err = w.openLoop(ctx, e, d)
	}
	if err != nil {
		return nil, err
	}
	u, err := w.d.stop()
	w.d = nil
	if err != nil {
		return nil, err
	}

	s := &samples{layer: map[string]float64{"answers.sampled": 0}, rssMB: []float64{u.rssMB}}
	for _, code := range []string{"proto", "bad-trace", "evicted", "cancelled", "internal"} {
		s.layer["answers.err."+code] = 0
	}
	invalid := invalidWindows(e.out, lags)
	var streams float64
	var nat, htp []float64
	for _, t := range tallies {
		s.events += t.events
		s.elapsed = max(s.elapsed, t.last)
		streams += float64(len(t.done))
		for name, v := range t.answers {
			s.layer[name] += v
		}
		for _, x := range t.done {
			if invalid[int(x.due/time.Second)] {
				continue
			}
			ms := float64(x.latency) / 1e6
			s.latencyMS = append(s.latencyMS, ms)
			if w.large {
				s.rate = append(s.rate, x.events/x.latency.Seconds())
			}
			if x.native {
				nat = append(nat, ms)
			} else {
				htp = append(htp, ms)
			}
		}
	}
	if len(s.latencyMS) == 0 {
		return nil, errNoWindow
	}
	if len(nat) > 0 {
		s.nativeP50 = median(nat)
	}
	if len(htp) > 0 {
		s.httpP50 = median(htp)
	}
	cpu := float64(u.user + u.sys)
	s.layer["noised.cpu_ms_per_stream"] = cpu / 1e6 / streams
	s.layer["noised.sys_share"] = float64(u.sys) / cpu
	if len(lags) > 0 {
		var ms []float64
		for _, l := range lags {
			ms = append(ms, float64(l.latency)/1e6)
		}
		s.layer["gen.lag_p99_ms"] = quantile(ms, 0.99)
		s.layer["gen.invalid_windows"] = float64(len(invalid))
	}
	return s, nil
}

// invalidWindows returns the one-second windows, by index, in which the
// generator's lag p99 exceeded lagLimit, and reports each; their streams
// are left out of the latency percentiles.
func invalidWindows(out io.Writer, lags []done) map[int]bool {
	by := map[int][]float64{}
	for _, l := range lags {
		k := int(l.due / time.Second)
		by[k] = append(by[k], float64(l.latency))
	}
	bad := map[int]bool{}
	for k, v := range by {
		if p := quantile(v, 0.99); p > float64(lagLimit) {
			bad[k] = true
			fmt.Fprintf(out, "# INVALID window %d s: generator lag p99 %.3f ms > %v; its streams are excluded\n", k, p/1e6, lagLimit)
		}
	}
	return bad
}

// closedLoop sends the large traces one after another over one NOISED/1
// connection, each after the previous answer, for d, calibrating the host
// after every segment.
func (w *ingest) closedLoop(ctx context.Context, e *env, d time.Duration) (*tally, error) {
	c, err := dialNative(ctx, w.d.nativeAddr, "large")
	if err != nil {
		return nil, err
	}
	defer c.close()
	t := &tally{}
	start := time.Now()
	for time.Since(start) < d {
		from := len(t.done)
		for end := time.Now().Add(w.size.segment); time.Now().Before(end); {
			k := len(t.done) % len(w.traces)
			sent := time.Since(start)
			if err := c.send(w.traces[k]); err != nil {
				return nil, err
			}
			a, err := c.answer()
			if err != nil {
				return nil, err
			}
			t.record(e, a, w.refs[k], done{due: sent, latency: time.Since(start) - sent, native: true})
		}
		speed, err := e.cal.segment(ctx)
		if err != nil {
			return nil, err
		}
		t.scale(from, speed)
	}
	return t, c.closeWrite()
}

// openLoop offers ingest-small's schedule for d. The schedule is cut into
// segments; after each, once every stream of it is answered, the host is
// calibrated with noised idle, and the schedule resumes where it stopped.
// It returns each connection's tally and the generator's lag per arrival,
// all timed on the schedule's clock.
func (w *ingest) openLoop(ctx context.Context, e *env, d time.Duration) ([]*tally, []done, error) {
	sched := smallSchedule(e.cfg.seed, w.size.smallRate, d, len(w.traces))
	seg := w.size.segment
	var tallies []*tally
	var lags []done
	for from := time.Duration(0); from < d; from += seg {
		var part []arrival
		for _, a := range sched {
			if a.due >= from && a.due < from+seg {
				part = append(part, a)
			}
		}
		ts, ls, err := w.openSegment(ctx, e, part, from)
		if err != nil {
			return nil, nil, err
		}
		speed, err := e.cal.segment(ctx)
		if err != nil {
			return nil, nil, err
		}
		for _, t := range ts {
			t.scale(0, speed)
		}
		tallies, lags = append(tallies, ts...), append(lags, ls...)
	}
	return tallies, lags, nil
}

// openSegment offers the arrivals of one segment, which starts at from on
// the schedule's clock, over a fresh pair of connections. The calling
// goroutine is the generator: it hands each arrival to its connection at
// the scheduled time. The latency of a stream runs from that time, so a
// stall also charges the streams queued behind it.
func (w *ingest) openSegment(ctx context.Context, e *env, sched []arrival, from time.Duration) ([]*tally, []done, error) {
	var nNative int
	for _, a := range sched {
		if a.native {
			nNative++
		}
	}
	// Sized to the number of sends, so the generator never blocks.
	toNative := make(chan arrival, nNative)
	toHTTP := make(chan arrival, len(sched)-nNative)
	var nt, ht tally
	var nErr, hErr error
	start := time.Now().Add(-from) // the schedule's time zero
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		nErr = w.nativeOpen(ctx, e, start, toNative, &nt)
	}()
	go func() {
		defer wg.Done()
		hErr = w.httpOpen(ctx, e, start, toHTTP, &ht)
	}()
	lags := make([]done, 0, len(sched))
	for _, a := range sched {
		sleepUntil(start.Add(a.due))
		if ctx.Err() != nil {
			break
		}
		if !a.scrape {
			lags = append(lags, done{due: a.due, latency: time.Since(start) - a.due})
		}
		if a.native {
			toNative <- a
		} else {
			toHTTP <- a
		}
	}
	close(toNative)
	close(toHTTP)
	wg.Wait()
	if nErr != nil || hErr != nil {
		return nil, nil, fmt.Errorf("ingest-small: native: %v, http: %v", nErr, hErr)
	}
	return []*tally{&nt, &ht}, lags, ctx.Err()
}

// sleepUntil blocks the calling thread until t. time.Sleep can wake a
// whole millisecond late on Linux, because the runtime's poller waits in
// milliseconds, which alone would break lagLimit; nanosleep wakes within
// the kernel's timer slack, 50 µs by default.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// nativeOpen sends each arrival as soon as the generator hands it over,
// without waiting for earlier answers; a reader matches answers to sends
// in order.
func (w *ingest) nativeOpen(ctx context.Context, e *env, start time.Time, in <-chan arrival, t *tally) error {
	c, err := dialNative(ctx, w.d.nativeAddr, nativeTenant)
	if err != nil {
		return err
	}
	defer c.close()
	sent := make(chan arrival, cap(in)) // sized to the number of sends
	var readErr error
	read := make(chan struct{})
	go func() {
		defer close(read)
		for a := range sent {
			ans, err := c.answer()
			if err != nil {
				readErr = err
				c.close() // unblocks a writer stuck on a full socket
				for range sent {
				}
				return
			}
			t.record(e, ans, w.refs[a.trace], done{due: a.due, latency: time.Since(start) - a.due, native: true})
		}
	}()
	var sendErr error
	for a := range in {
		if sendErr != nil {
			continue
		}
		if sendErr = c.send(w.traces[a.trace]); sendErr == nil {
			sent <- a
		}
	}
	close(sent)
	<-read
	if sendErr == nil && readErr == nil {
		sendErr = c.closeWrite()
	}
	if readErr != nil {
		return readErr
	}
	return sendErr
}

// httpOpen posts each arrival over one keep-alive connection, in the
// order the generator hands them over, and scrapes /metrics when asked.
func (w *ingest) httpOpen(ctx context.Context, e *env, start time.Time, in <-chan arrival, t *tally) error {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	base := "http://" + w.d.httpAddr
	var err error
	for a := range in {
		if err != nil {
			continue
		}
		if a.scrape {
			var body []byte
			body, _, err = do(ctx, cl, http.MethodGet, base+"/metrics", nil)
			e.check(err == nil && bytes.Contains(body, []byte("noised_tenants ")), "GET /metrics: %v", err)
			continue
		}
		var body []byte
		var status int
		body, status, err = do(ctx, cl, http.MethodPost, base+"/v1/ingest?tenant="+a.tenant, w.traces[a.trace])
		if err != nil {
			continue
		}
		ans, perr := parseHTTPAnswer(status, body)
		if perr != nil {
			err = perr
			continue
		}
		t.record(e, ans, w.refs[a.trace], done{due: a.due, latency: time.Since(start) - a.due})
	}
	return err
}

// do performs one request and returns the body and status.
func do(ctx context.Context, cl *http.Client, method, url string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := cl.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// httpCodes maps ingest HTTP statuses to the NOISED/1 error families.
var httpCodes = map[int]string{
	http.StatusBadRequest:          "bad-trace",
	http.StatusTooManyRequests:     "evicted",
	http.StatusServiceUnavailable:  "cancelled",
	http.StatusInternalServerError: "internal",
}

// parseHTTPAnswer decodes an ingest answer.
func parseHTTPAnswer(status int, body []byte) (answer, error) {
	var v struct {
		Events     uint64
		NoiseNS    int64
		Incomplete bool
		Sampled    bool
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return answer{}, fmt.Errorf("ingest answer %q: %w", strings.TrimSpace(string(body)), err)
	}
	a := answer{events: v.Events, noiseNS: v.NoiseNS, incomplete: v.Incomplete, sampled: v.Sampled}
	if status != http.StatusOK {
		a.code = httpCodes[status]
		if a.code == "" {
			a.code = "internal"
		}
	}
	return a, nil
}

// replay repeats the streams in-process through the layers noised
// chains: a decode, the stream analysis, the tenant window fold, and
// router.Ingest with noised's default configuration, flushing the router
// into a Prometheus and a file sink about once per second of offered load.
func (w *ingest) replay(ctx context.Context, e *env, d time.Duration) (float64, error) {
	type stream struct {
		trace  int
		tenant string
	}
	var seq []stream
	flushEvery := flushEveryLarge
	if w.large {
		for i := range w.traces {
			seq = append(seq, stream{i, "large"})
		}
	} else {
		for _, a := range smallSchedule(e.cfg.seed, w.size.smallRate, 10*time.Second, len(w.traces)) {
			if !a.scrape {
				seq = append(seq, stream{a.trace, a.tenant})
			}
		}
		flushEvery = int(w.size.smallRate)
	}

	prom := sink.NewProm()
	file, err := sink.NewFile(filepath.Join(e.dir, "replay-sink.lp"))
	if err != nil {
		return 0, err
	}
	rt := router.New(router.Config{MaxPending: 64}, prom, file)
	defer rt.Close(context.Background())
	opts := noise.DefaultOptions()
	opts.KeepDurations = false // as router.New sets for every tenant
	windows := map[string]*noise.Window{}
	batch := make([]trace.Event, 4096)
	scrape := httptest.NewRequest(http.MethodGet, "/metrics", nil)

	i, flushedOn := 0, false
	return e.rec.replay(ctx, "stream", d, func() error {
		st := seq[i%len(seq)]
		i++
		b, want := w.traces[st.trace], w.refs[st.trace]
		var err error
		e.rec.call("trace.decode", func() { err = decodeAll(b, batch) })
		if err != nil {
			return err
		}
		var rep *noise.Report
		e.rec.call("noise.analyze_stream", func() {
			var dec *trace.Decoder
			if dec, err = trace.NewDecoder(bytes.NewReader(b)); err == nil {
				rep, err = noise.AnalyzeStream(ctx, dec, opts, 1)
			}
		})
		if err != nil {
			return err
		}
		e.rec.add("noise.spans", float64(len(rep.Spans)))
		e.rec.add("noise.interruptions", float64(len(rep.Interruptions)))
		win := windows[st.tenant]
		if win == nil {
			win = noise.NewWindow(6)
			windows[st.tenant] = win
		}
		e.rec.call("noise.window_add", func() { win.Add(rep) })
		var res router.Result
		e.rec.call("router.ingest", func() {
			var dec *trace.Decoder
			if dec, err = trace.NewDecoder(bytes.NewReader(b)); err == nil {
				res, err = rt.Ingest(ctx, st.tenant, dec)
			}
		})
		if err != nil {
			return err
		}
		e.check(rep.EventsConsumed == want.events && rep.TotalNoiseNS == want.noiseNS &&
			res.Events == want.events && res.NoiseNS == want.noiseNS,
			"in-process ingest of trace %d: stream %d/%d, router %d/%d, want %d/%d",
			st.trace, rep.EventsConsumed, rep.TotalNoiseNS, res.Events, res.NoiseNS, want.events, want.noiseNS)
		// Flush once per flushEvery streams, and at least once while
		// spans are on however short the replay.
		if i%flushEvery == 0 || (e.rec.on && !flushedOn) {
			e.rec.call("router.flush", func() { err = rt.Flush(ctx) })
			e.rec.call("sink.scrape", func() { prom.ServeHTTP(httptest.NewRecorder(), scrape) })
			for _, win := range windows {
				win.Rotate()
			}
			flushedOn = flushedOn || e.rec.on
		}
		return err
	})
}

// decodeAll decodes every event of a trace, as a receiver's decoder does.
func decodeAll(b []byte, batch []trace.Event) error {
	d, err := trace.NewDecoder(bytes.NewReader(b))
	if err != nil {
		return err
	}
	for {
		if _, err := d.Next(batch); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}
