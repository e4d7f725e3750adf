package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

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
