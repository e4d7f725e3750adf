package experiments

import (
	"reflect"
	"strings"
	"testing"

	"osnoise/internal/sim"
)

// shortCtx returns a context with a reduced duration for tests.
func shortCtx() *Context {
	c := NewContext(3*sim.Second, 17)
	c.FTQDuration = 3 * sim.Second
	return c
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	c := shortCtx()
	results := All(c)
	if len(results) != 25 {
		t.Fatalf("results = %d, want 25", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if r.ID == "" || r.Title == "" {
			t.Errorf("result missing metadata: %+v", r)
		}
		if len(strings.TrimSpace(r.Text)) == 0 {
			t.Errorf("%s: empty text", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestByIDCoversAll(t *testing.T) {
	c := shortCtx()
	for _, id := range IDs() {
		if r := ByID(c, id); r == nil || r.ID != id {
			t.Errorf("ByID(%q) failed", id)
		}
	}
	if ByID(c, "nope") != nil {
		t.Error("unknown id accepted")
	}
}

func TestContextCaches(t *testing.T) {
	c := shortCtx()
	r1, rep1 := c.App("SPHOT")
	r2, rep2 := c.App("SPHOT")
	if r1 != r2 || rep1 != rep2 {
		t.Fatal("App not cached")
	}
	f1, _ := c.FTQ()
	f2, _ := c.FTQ()
	if f1 != f2 {
		t.Fatal("FTQ not cached")
	}
}

func TestFig1Validation(t *testing.T) {
	r := Fig1(shortCtx())
	if !strings.Contains(r.Text, "FTQ/tracer") {
		t.Fatalf("fig1 missing validation line:\n%s", r.Text)
	}
	if len(r.Data["ftq"]) == 0 || len(r.Data["synthetic"]) == 0 {
		t.Fatal("fig1 missing data series")
	}
}

func TestFig3Shares(t *testing.T) {
	r := Fig3(shortCtx())
	for _, name := range AppNames {
		rows, ok := r.Data[name]
		if !ok || len(rows) != 1 || len(rows[0]) != 5 {
			t.Fatalf("fig3 data for %s malformed: %v", name, rows)
		}
		var sum float64
		for _, v := range rows[0] {
			sum += v
		}
		if sum < 0.95 || sum > 1.001 {
			t.Errorf("%s category shares sum to %.3f", name, sum)
		}
	}
}

func TestTablesHaveFiveRows(t *testing.T) {
	c := shortCtx()
	for _, r := range []*Result{Table1(c), Table2(c), Table3(c), Table4(c), Table5(c), Table6(c)} {
		lines := strings.Split(strings.TrimRight(r.Text, "\n"), "\n")
		if len(lines) != 7 { // header + separator + 5 apps
			t.Errorf("%s has %d lines:\n%s", r.ID, len(lines), r.Text)
		}
		for _, name := range AppNames {
			if !strings.Contains(r.Text, name) {
				t.Errorf("%s missing row for %s", r.ID, name)
			}
		}
	}
}

func TestTable5TimerFreq(t *testing.T) {
	r := Table5(shortCtx())
	// Every application's timer frequency is ~100 ev/s.
	for _, name := range AppNames {
		freq := r.Data[name][0][0]
		if freq < 97 || freq > 103 {
			t.Errorf("%s timer freq %.1f", name, freq)
		}
	}
}

func TestFig10FindsPair(t *testing.T) {
	r := Fig10(shortCtx())
	if strings.Contains(r.Text, "no matching pair") {
		t.Fatalf("fig10 found no disambiguation pair:\n%s", r.Text)
	}
	if !strings.Contains(r.Text, "page_fault") || !strings.Contains(r.Text, "timer_interrupt") {
		t.Fatalf("fig10 pair malformed:\n%s", r.Text)
	}
}

func TestFig9FindsComposite(t *testing.T) {
	r := Fig9(shortCtx())
	if strings.Contains(r.Text, "no composite quantum") {
		t.Fatalf("fig9 found no composite quantum:\n%s", r.Text)
	}
}

func TestExt1Improvement(t *testing.T) {
	r := Ext1(shortCtx())
	rows := r.Data["scaling"]
	if len(rows) == 0 {
		t.Fatal("no scaling data")
	}
	last := rows[len(rows)-1]
	if last[1] <= 1.0 {
		t.Fatalf("no slowdown at scale: %v", last)
	}
	if last[3] <= 1.0 {
		t.Fatalf("mitigation did not improve at scale: %v", last)
	}
	// Slowdown grows from the first to the last point.
	if rows[0][1] >= last[1] {
		t.Fatalf("slowdown not growing: first %v last %v", rows[0], last)
	}
}

func TestOverheadBand(t *testing.T) {
	r := Overhead(shortCtx())
	for _, name := range AppNames {
		frac := r.Data[name][0][0]
		if frac <= 0 || frac > 0.01 {
			t.Errorf("%s overhead %.5f outside (0, 1%%]", name, frac)
		}
	}
}

func TestUnknownAppPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown app did not panic")
		}
	}()
	shortCtx().App("NOTANAPP")
}

// Ext2: the lightweight kernel must be orders of magnitude quieter.
func TestExt2CNKQuieter(t *testing.T) {
	r := Ext2CNK(shortCtx())
	for _, name := range AppNames {
		row := r.Data[name][0]
		linux, cnk := row[0], row[1]
		if cnk >= linux/5 {
			t.Errorf("%s: CNK noise %.5f not well below Linux %.5f", name, cnk, linux)
		}
	}
}

// Ext3: deferral reduces preemption noise and alignment wins at scale.
func TestExt3Mitigation(t *testing.T) {
	r := Ext3Mitigation(shortCtx())
	pre := r.Data["preemption"][0]
	if pre[1] >= pre[0] {
		t.Fatalf("mitigation did not reduce preemption: %v", pre)
	}
	slow := r.Data["slowdown"][0]
	if slow[1] >= slow[0] {
		t.Fatalf("alignment did not improve scale slowdown: %v", slow)
	}
}

// Ext4: the HF/LF relative impact must fall as granularity grows
// (high-frequency noise resonates with fine-grained applications).
func TestExt4Resonance(t *testing.T) {
	r := Ext4Resonance(shortCtx())
	rows := r.Data["resonance"]
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0][3], rows[len(rows)-1][3]
	if !(first > last) {
		t.Fatalf("HF/LF excess ratio not decreasing: first %.3f last %.3f", first, last)
	}
	// Both noise classes slow the application at fine granularity.
	if rows[0][1] <= 1 || rows[0][2] <= 1 {
		t.Fatalf("no slowdown at fine granularity: %v", rows[0])
	}
}

// Ext5: every mitigation must reduce daemon preemption; the spare core
// must do so without the I/O-latency price RT-class pays.
func TestExt5MitigationMatrix(t *testing.T) {
	r := Ext5MitigationMatrix(shortCtx())
	plain := r.Data["plain"][0]
	rt := r.Data["rt-class"][0]
	spare := r.Data["spare-core"][0]
	cnk := r.Data["cnk"][0]
	if plain[1] == 0 {
		t.Fatal("plain run has no daemon preemption")
	}
	if rt[1] > 0.25*plain[1] {
		t.Errorf("rt-class daemon preemption %.3f vs plain %.3f", rt[1], plain[1])
	}
	if spare[1] != 0 {
		t.Errorf("spare-core daemon preemption %.3f, want 0", spare[1])
	}
	// RT starves the daemons; the spare core does not.
	if rt[2] <= plain[2] {
		t.Errorf("rt-class io latency %.3f not above plain %.3f", rt[2], plain[2])
	}
	if spare[2] >= rt[2] {
		t.Errorf("spare-core io latency %.3f not below rt %.3f", spare[2], rt[2])
	}
	if cnk[0] >= spare[0] {
		t.Errorf("cnk noise %.5f not below spare-core %.5f", cnk[0], spare[0])
	}
}

// Ext6: noise must dominate the collective's inflation at scale while
// the quiet tree stays within its hop budget.
func TestExt6Collectives(t *testing.T) {
	r := Ext6Collectives(shortCtx())
	rows := r.Data["collectives"]
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		quiet, noisyT := row[1], row[2]
		if noisyT <= quiet {
			t.Fatalf("noisy not slower at %v ranks: %v vs %v", row[0], noisyT, quiet)
		}
	}
	// Noise share grows with scale.
	if rows[len(rows)-1][3] <= rows[0][3] {
		t.Fatalf("noise share not growing: %v", rows)
	}
}

// Ext7: 4 KiB pages must drown in TLB noise; HugeTLB must recover most
// of it, approaching (but not beating) CNK.
func TestExt7SoftwareTLB(t *testing.T) {
	r := Ext7SoftwareTLB(shortCtx())
	k4 := r.Data["linux-4K"][0]
	huge := r.Data["linux-huge"][0]
	cnk := r.Data["cnk"][0]
	if k4[1] < 5000 {
		t.Fatalf("4K TLB miss rate %.0f, want thousands", k4[1])
	}
	if huge[1] > k4[1]/50 {
		t.Fatalf("HugeTLB rate %.0f not well below 4K %.0f", huge[1], k4[1])
	}
	if !(k4[0] > huge[0] && huge[0] > cnk[0]) {
		t.Fatalf("noise ordering wrong: 4K %.4f huge %.4f cnk %.4f", k4[0], huge[0], cnk[0])
	}
	// Efficiency ordering: CNK >= HugeTLB > 4K pages.
	if !(cnk[2] >= huge[2] && huge[2] > k4[2]) {
		t.Fatalf("efficiency ordering wrong: 4K %v huge %v cnk %v", k4[2], huge[2], cnk[2])
	}
}

// Fig7's culprit listing: equal preemption noise orders by ascending
// pid, independent of map iteration order.
func TestRankCulpritsBreaksTiesByPID(t *testing.T) {
	want := []culprit{{7, 900}, {9, 500}, {42, 500}}
	for rep := 0; rep < 20; rep++ {
		got := rankCulprits(map[int64]int64{42: 500, 7: 900, 9: 500})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
