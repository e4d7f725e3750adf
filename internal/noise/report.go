package noise

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"osnoise/internal/stats"
)

// Span is one analysed kernel activity occurrence.
type Span struct {
	Key   Key   // activity type
	CPU   int32 // CPU the span executed on
	Start int64 // ns
	Wall  int64 // ns, entry→exit including nested activities
	Own   int64 // ns, wall minus nested activity time
	PID   int64 // victim application pid (0 if none)
	// Culprit is the pid of the task that ran during a preemption span
	// (0 for other keys).
	Culprit int64
	Noise   bool // counted as noise under the accounting rules
}

// Component is one activity inside an interruption, for the synthetic
// noise chart and the disambiguation reports.
type Component struct {
	Key   Key   // activity type
	Start int64 // ns, component start time
	Own   int64 // ns, own time contributed to the interruption
}

// Interruption is a maximal group of adjacent noise activities on one
// CPU: the unit an external micro-benchmark perceives as a single spike.
type Interruption struct {
	CPU        int32       // CPU the group occurred on
	Start      int64       // ns, first component start
	End        int64       // ns, latest component end
	Total      int64       // summed own time of components
	Components []Component // member activities in merge order
}

// Describe renders the interruption's composition, e.g.
// "timer_interrupt (2648ns) + run_timer_softirq (254ns) = 2902ns".
func (i *Interruption) Describe() string {
	parts := make([]string, len(i.Components))
	for j, comp := range i.Components {
		parts[j] = fmt.Sprintf("%s (%dns)", comp.Key, comp.Own)
	}
	return fmt.Sprintf("%s = %dns", strings.Join(parts, " + "), i.Total)
}

// KeyStats aggregates one activity type across the trace.
type KeyStats struct {
	Key     Key           // activity type these statistics describe
	Summary stats.Summary // count/sum/min/max and running moments
	// Durations retains raw per-occurrence durations for histogram and
	// percentile computation.
	Durations []int64
}

// Freq returns events/second normalised per CPU, the unit of the
// paper's tables.
func (ks *KeyStats) Freq(seconds float64, cpus int) float64 {
	if seconds <= 0 || cpus <= 0 {
		return 0
	}
	return float64(ks.Summary.Count) / seconds / float64(cpus)
}

// Histogram bins the durations into n linear buckets over [0, hi); hi=0
// auto-sizes to the maximum duration.
func (ks *KeyStats) Histogram(n int, hi int64) *stats.Histogram {
	if hi <= 0 {
		hi = ks.Summary.Max + 1
	}
	if hi <= 0 {
		hi = 1
	}
	h := stats.NewHistogram(0, hi, n, true)
	for _, d := range ks.Durations {
		h.Add(d)
	}
	return h
}

// HistogramP99 reproduces the paper's figure style: linear histogram cut
// at the 99th percentile so the long tail does not flatten the body.
func (ks *KeyStats) HistogramP99(n int) *stats.Histogram {
	return ks.Histogram(n, 0).CutAtPercentile(0.99)
}

// Report is the full analysis result for one trace.
type Report struct {
	Seconds float64 // analysed trace duration (or window length)
	CPUs    int     // CPU count from the trace header

	// Spans holds every analysed kernel activity, time-ordered.
	Spans []Span
	// PerKey aggregates statistics per activity type (noise and service).
	PerKey [NumKeys]*KeyStats
	// Breakdown totals noise nanoseconds per category.
	Breakdown [NumCategories]int64
	// Interruptions groups adjacent noise activities per CPU.
	Interruptions []Interruption

	// TotalNoiseNS is the summed own time of all noise spans.
	TotalNoiseNS int64
	// NoiseLost counts exits without entries / unclosed spans dropped at
	// trace boundaries.
	Dropped int

	// Incomplete marks a report whose ingestion stopped before the end
	// of the input: the analysis was cancelled mid-run, or an
	// event/byte budget capped it. Totals cover only the consumed
	// prefix.
	Incomplete bool
	// EventsConsumed counts the event records ingested from the input
	// (before window and CPU filtering). On a complete run it equals
	// the input's event count; on a cancelled run it is the best-effort
	// progress at the moment of cancellation.
	EventsConsumed uint64
	// CPUsFinished counts the per-CPU span walkers that completed. It
	// is meaningful only on a cancelled parallel analysis and stays
	// zero otherwise — on a complete run every CPU finished by
	// definition.
	CPUsFinished int
	// InterruptionsTotal is the exact interruption count before budget
	// sampling reduced the Interruptions list. Zero when no sampling
	// occurred: len(Interruptions) is then the total.
	InterruptionsTotal int
	// InterruptionsSampled marks that Interruptions is a deterministic
	// reservoir sample capped by Budget.MaxInterruptions; counts and
	// noise totals elsewhere in the report remain exact.
	InterruptionsSampled bool
}

// Stats returns the aggregate for one activity type (never nil).
func (r *Report) Stats(k Key) *KeyStats {
	if r.PerKey[k] == nil {
		r.PerKey[k] = &KeyStats{Key: k}
	}
	return r.PerKey[k]
}

// NoiseFraction returns total noise as a fraction of total CPU time.
func (r *Report) NoiseFraction() float64 {
	if r.Seconds <= 0 || r.CPUs <= 0 {
		return 0
	}
	return float64(r.TotalNoiseNS) / (r.Seconds * 1e9 * float64(r.CPUs))
}

// CategoryFraction returns a category's share of total noise.
func (r *Report) CategoryFraction(c Category) float64 {
	if r.TotalNoiseNS == 0 {
		return 0
	}
	return float64(r.Breakdown[c]) / float64(r.TotalNoiseNS)
}

// BreakdownString renders the Figure-3-style per-category breakdown.
func (r *Report) BreakdownString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total noise %.3f%% of CPU time (%.3f ms/s/cpu)\n",
		100*r.NoiseFraction(), r.NoiseFraction()*1e3)
	for c := CatPeriodic; c <= CatIO; c++ {
		fmt.Fprintf(&sb, "  %-12s %6.1f%%  (%d ns)\n", c, 100*r.CategoryFraction(c), r.Breakdown[c])
	}
	return sb.String()
}

// TableRow formats freq/avg/max/min for one key in the style of the
// paper's tables (freq in ev/sec normalised per CPU, durations in ns).
func (r *Report) TableRow(k Key) string {
	ks := r.Stats(k)
	return fmt.Sprintf("%-22s freq=%8.0f ev/s  avg=%8.0f ns  max=%10d ns  min=%6d ns",
		k, ks.Freq(r.Seconds, r.CPUs), ks.Summary.Mean(), ks.Summary.Max, ks.Summary.Min)
}

// InterruptionsOnCPU filters interruptions for one CPU.
func (r *Report) InterruptionsOnCPU(cpu int32) []Interruption {
	var out []Interruption
	for _, in := range r.Interruptions {
		if in.CPU == cpu {
			out = append(out, in)
		}
	}
	return out
}

// TopInterruptions returns the n interruptions with the largest Total,
// largest first. Equal totals keep their order in r.Interruptions, so
// the result equals a stable sort by descending Total cut to n; n <= 0
// yields an empty result. Selection keeps a heap of n indices: for N
// interruptions it costs O(N log n) time and O(n) extra memory, and
// r.Interruptions is neither copied nor reordered.
func (r *Report) TopInterruptions(n int) []Interruption {
	all := r.Interruptions
	n = min(n, len(all))
	if n <= 0 {
		return nil
	}
	// weaker reports whether all[a] ranks below all[b] in the result.
	weaker := func(a, b int) bool {
		if all[a].Total != all[b].Total {
			return all[a].Total < all[b].Total
		}
		return a > b
	}
	// down restores the heap property below h[i]; h[0] is the weakest.
	down := func(h []int, i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && weaker(h[c+1], h[c]) {
				c++
			}
			if !weaker(h[c], h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	h := make([]int, n)
	for i := range h {
		h[i] = i
	}
	for i := n/2 - 1; i >= 0; i-- {
		down(h, i)
	}
	// Later indices lose ties, so only a strictly larger Total displaces
	// the weakest of the current top n.
	for i := n; i < len(all); i++ {
		if all[i].Total > all[h[0]].Total {
			h[0] = i
			down(h, 0)
		}
	}
	out := make([]Interruption, n)
	for k := n - 1; k >= 0; k-- {
		out[k] = all[h[0]]
		h[0] = h[k]
		down(h[:k], 0)
	}
	return out
}

// PreemptionsByCulprit aggregates preemption noise per preempting task.
func (r *Report) PreemptionsByCulprit() map[int64]int64 {
	out := make(map[int64]int64)
	for _, s := range r.Spans {
		if s.Key == KeyPreemption && s.Noise {
			out[s.Culprit] += s.Own
		}
	}
	return out
}

// PerCPUNoise totals noise nanoseconds per CPU — the per-row view of
// the Paraver trace.
func (r *Report) PerCPUNoise() []int64 {
	out := make([]int64, r.CPUs)
	for _, s := range r.Spans {
		if s.Noise && int(s.CPU) < r.CPUs {
			out[s.CPU] += s.Own
		}
	}
	return out
}

// BandStats splits noise interruptions into the two canonical classes
// the literature distinguishes (paper §II): high-frequency
// short-duration noise (timer ticks, page faults) and low-frequency
// long-duration noise (kernel threads, daemons). Resonance with the
// application's granularity depends on the class.
type BandStats struct {
	ShortCount, LongCount uint64 // interruptions in each class
	ShortNS, LongNS       int64  // summed noise nanoseconds per class
	// Rates are interruptions/second per CPU.
	ShortRate, LongRate float64
}

// Bands classifies interruptions by duration against thresholdNS
// (e.g. 50 µs separates tick-scale from daemon-scale noise).
func (r *Report) Bands(thresholdNS int64) BandStats {
	var b BandStats
	for _, in := range r.Interruptions {
		if in.Total <= thresholdNS {
			b.ShortCount++
			b.ShortNS += in.Total
		} else {
			b.LongCount++
			b.LongNS += in.Total
		}
	}
	if r.Seconds > 0 && r.CPUs > 0 {
		denom := r.Seconds * float64(r.CPUs)
		b.ShortRate = float64(b.ShortCount) / denom
		b.LongRate = float64(b.LongCount) / denom
	}
	return b
}

// CompositionStat aggregates interruptions with the same activity
// composition (e.g. "timer_interrupt+run_timer_softirq").
type CompositionStat struct {
	Signature string // "+"-joined component keys, in occurrence order
	Count     int    // interruptions with this composition
	TotalNS   int64  // summed interruption totals
	MinNS     int64  // smallest single interruption
	MaxNS     int64  // largest single interruption
}

// Compositions groups interruptions by their component signature,
// sorted by total noise, largest first. It answers the §V question
// "what kinds of interruptions does this application actually suffer"
// in one table.
func (r *Report) Compositions() []CompositionStat {
	agg := make(map[string]*CompositionStat)
	for _, in := range r.Interruptions {
		var sb strings.Builder
		for i, comp := range in.Components {
			if i > 0 {
				sb.WriteByte('+')
			}
			sb.WriteString(comp.Key.String())
		}
		sig := sb.String()
		cs, ok := agg[sig]
		if !ok {
			cs = &CompositionStat{Signature: sig, MinNS: in.Total, MaxNS: in.Total}
			agg[sig] = cs
		}
		cs.Count++
		cs.TotalNS += in.Total
		if in.Total < cs.MinNS {
			cs.MinNS = in.Total
		}
		if in.Total > cs.MaxNS {
			cs.MaxNS = in.Total
		}
	}
	out := make([]CompositionStat, 0, len(agg))
	for _, cs := range agg {
		out = append(out, *cs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNS != out[j].TotalNS {
			return out[i].TotalNS > out[j].TotalNS
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// KeyDelta is one row of a report comparison.
type KeyDelta struct {
	Key          Key     // activity type this row compares
	CountA       uint64  // occurrences in report A
	CountB       uint64  // occurrences in report B
	TotalA       int64   // summed own nanoseconds in A
	TotalB       int64   // summed own nanoseconds in B
	TotalRatioBA float64 // B/A; +Inf when A is zero and B is not
}

// Diff compares two analyses key by key — the before/after view of a
// mitigation or a kernel change (the workflow the paper's §I says the
// methodology serves: "provide quick relative comparisons between
// different versions as developers work on reducing noise", but with
// per-event resolution). Keys absent from both reports are skipped;
// rows are ordered by the magnitude of the absolute change.
func Diff(a, b *Report) []KeyDelta {
	var out []KeyDelta
	for k := Key(0); k < NumKeys; k++ {
		sa, sb := a.Stats(k).Summary, b.Stats(k).Summary
		if sa.Count == 0 && sb.Count == 0 {
			continue
		}
		d := KeyDelta{
			Key: k, CountA: sa.Count, CountB: sb.Count,
			TotalA: int64(sa.Sum), TotalB: int64(sb.Sum),
		}
		switch {
		case d.TotalA == 0 && d.TotalB == 0:
			d.TotalRatioBA = 1
		case d.TotalA == 0:
			d.TotalRatioBA = math.Inf(1)
		default:
			d.TotalRatioBA = float64(d.TotalB) / float64(d.TotalA)
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		di := out[i].TotalB - out[i].TotalA
		if di < 0 {
			di = -di
		}
		dj := out[j].TotalB - out[j].TotalA
		if dj < 0 {
			dj = -dj
		}
		return di > dj
	})
	return out
}

// DiffString renders a comparison as text.
func DiffString(a, b *Report) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "total noise: %.3f%% -> %.3f%% of CPU time\n",
		100*a.NoiseFraction(), 100*b.NoiseFraction())
	for _, d := range Diff(a, b) {
		fmt.Fprintf(&sb, "  %-22s %9.3fms -> %9.3fms  (%5.2fx, n %d -> %d)\n",
			d.Key, float64(d.TotalA)/1e6, float64(d.TotalB)/1e6,
			d.TotalRatioBA, d.CountA, d.CountB)
	}
	return sb.String()
}
