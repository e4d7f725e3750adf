#!/usr/bin/env bash
# Tier-1 + static-invariant CI flow for the osnoise module.
#
# Order matters: cheap structural checks first (build, vet, noisevet),
# then the race-instrumented test suite, then a short fuzz smoke over
# the trace codec so a corpus regression cannot land silently.
set -euo pipefail
cd "$(dirname "$0")/.."

# step NAME closes the running step, printing its wall time, and opens
# the next. The EXIT trap closes the last one, also when a failing
# command ends the run under set -e; it leaves the exit status alone.
step_name=
step_start=0
step_done() {
    if [ -n "$step_name" ]; then
        echo "-- $step_name: $(( ($(date +%s%N) - step_start) / 1000000 )) ms"
    fi
    step_name=
}
step() {
    step_done
    step_name="$1"
    step_start="$(date +%s%N)"
    echo "== $1"
}
trap step_done EXIT

step "go build"
go build ./...

step "go vet"
go vet ./...

step "noisevet (internal/analysis suite)"
# -stats prints a per-analyzer findings count to stderr so the CI log
# shows each analyzer ran, even when the tree is clean. -staleignore
# additionally fails the run on //noisevet:ignore or
# //noisevet:coldpath directives that suppress nothing: a stale
# exemption is a latent hole the next refactor falls through.
go run ./cmd/noisevet -stats -staleignore ./...

step "noisevet timing budget"
# The suite must stay cheap enough to run on every push: the full
# 14-analyzer run over ./... (load + type-check + analyses) has to
# finish inside the budget. -timing prints the per-analyzer split to
# stderr so a regression is attributable from the CI log alone, and
# -benchjson writes the dated per-analyzer entry to a scratch file: the
# timing history in results/BENCH_noisevet.json grows only by a
# deliberate run, never by CI. The binary is prebuilt so compile time
# is not billed to the suite.
vetdir="$(mktemp -d)"
go build -o "$vetdir/noisevet" ./cmd/noisevet
budget_ms=30000
start_ns="$(date +%s%N)"
"$vetdir/noisevet" -timing -benchjson "$vetdir/BENCH_noisevet.json" ./...
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
rm -rf "$vetdir"
echo "noisevet suite: ${elapsed_ms} ms (budget ${budget_ms} ms)"
if [ "$elapsed_ms" -gt "$budget_ms" ]; then
    echo "noisevet suite blew its ${budget_ms} ms budget (${elapsed_ms} ms)" >&2
    exit 1
fi

step "escape-analysis baseline (//noisevet:hotpath files)"
# One-sided gate: a NEW compiler-reported heap escape in a hot-path
# file fails the run (the hotpath analyzer catches patterns; this
# catches what only the compiler's escape analysis can see).
scripts/escape_baseline.sh

step "doc cross-links (files + section anchors)"
# Markdown links must resolve and ARCHITECTURE/DESIGN §-references
# must name sections that still exist — inserting a section and
# renumbering the rest is exactly the edit that silently strands
# references in README, DESIGN, and package godoc.
scripts/doclink.sh

step "doc lint (noisevet doccomment analyzer)"
# Redundant with the full suite above, but a dedicated step keeps the
# failure mode legible: this one is "an exported identifier in the
# audited packages lost its doc comment", nothing else.
go run ./cmd/noisevet -only doccomment ./...

step "go test -race"
go test -race ./...

step "tracer hand-off (ring, collector, merge; race-instrumented, 10 runs)"
# Writers race a consumer that takes sub-buffers by ownership; a lost
# or doubled event, a reordered writer, or a write into a taken
# sub-buffer fails these tests, and under -race the last is also a data
# race. One run can miss an interleaving, so they run ten times.
go test -race -count=10 -run 'TestRing|TestCollect|TestMerge' ./internal/trace

step "stream hand-off (race-instrumented, 5 runs)"
# AnalyzeStream's pooled batches cross from the decoding goroutine to
# the walkers and back through a sync.Pool, and NOISED/1 frames are
# read straight into the connection's Decoder; a batch reused while a
# walker still reads it, or a trace that leaves the connection out of
# frame sync, fails these tests, the first also as a data race.
go test -race -count=5 -run 'TestStream|TestNative|TestHTTPIngest|TestDecoderStream|TestSession' \
    ./internal/noise ./internal/daemon/...

step "corruption suite (trace fault injector, race-instrumented)"
# The deterministic fault injector sweeps every mutation over every
# encoding and feeds the result to every reader entry point; any panic
# or untyped error from corrupted bytes fails the run. Part of the
# -race suite above, but a dedicated step keeps the failure legible.
go test -race -run 'TestCorruption|TestMutations|TestValidTrace|TestWrongMagic' \
    ./internal/trace/corrupt

step "fuzz smoke: noisevet directive parser"
# The //noisevet:* directive grammar is parsed from arbitrary source
# comments; its checked-in corpus under
# internal/analysis/directive/testdata/fuzz replays in the plain test
# run, and a short live fuzz keeps the corpus honest.
go test ./internal/analysis/directive -run='^$' -fuzz='^FuzzParse$' -fuzztime=10s

step "fuzz smoke: trace codec + decoder surfaces"
# -fuzz accepts a single target per invocation; smoke each codec fuzzer
# briefly. FuzzParse (paraver) is covered by its seed corpus in the
# regular run above; the checked-in corpora under
# internal/trace/testdata/fuzz replay during the plain test run too.
for target in FuzzRead FuzzReadCompressed FuzzReadAny \
              FuzzDecoder FuzzOpenRaw FuzzReadParallel; do
    go test ./internal/trace -run="^$" -fuzz="^${target}\$" -fuzztime=10s
done

step "fault-injection suite (cluster crash/straggler/hang, race-instrumented)"
# The resilience layer: seeded crash/straggler/hang schedules executed
# on virtual time across worker counts, checkpoint/restart recovery,
# degraded-mode allreduce, and the seed-determinism (bit-identical
# twice) checks. Part of the -race suite above; the dedicated step
# keeps the failure mode legible.
go test -race -run 'TestFaulted|TestCrash|TestCheckpoint|TestHang|TestStraggler|TestDegraded|TestAllRanksFailed|TestFaultOnDeadRank|TestSchedule' \
    ./internal/cluster/...

step "cancellation suite (goroutine-leak regression, race-instrumented)"
# Cancelling every parallel entry point mid-run across shard counts
# must return the typed ErrCancelled error with a partial result and
# leave runtime.NumGoroutine() at its baseline.
go test -race -run 'TestCancel|TestRunCancelled|TestReadParallelCancelled' \
    ./internal/noise ./internal/trace ./internal/cluster/... ./internal/mpi

step "daemon soak (multi-tenant streaming ingest, race-instrumented)"
# The noised daemon's concurrency contract: 1000 concurrent tenant
# streams through the router with per-tenant windows bit-identical to
# the batch analyzer, plus an end-to-end soak with both transports
# (HTTP + NOISED/1) live at once and a graceful drain. Both tests
# assert runtime.NumGoroutine() back to baseline — the dynamic half of
# the zero-leak guarantee (goroleak is the static half). Part of the
# -race suite above; the dedicated step keeps the failure legible.
go test -race -run 'TestRouterSoak|TestDaemonSoakMixedTransports' \
    ./internal/daemon/...

step "cancellation smoke: -timeout exits with the documented code"
# A 1 ms deadline against a multi-second analysis must exit 3 — cleanly
# and promptly, never a deadlock or a goroutine dump. `timeout 60`
# guards the "never hangs" half of the contract. The binaries are built
# first because `go run` collapses every program failure to exit 1.
smokedir="$(mktemp -d)"
go build -o "$smokedir/" ./cmd/lttng-noise ./cmd/noisereport ./cmd/noisebench
"$smokedir/lttng-noise" -app AMG -duration 30s -report=false \
    -trace "$smokedir/smoke.lttn"
"$smokedir/lttng-noise" -app AMG -duration 30s -report=false -compress \
    -trace "$smokedir/smoke.lttnz"
# The parallel decode, the sequential one (-parallel 1) and the
# compressed one (sequential at any -parallel) must each stop.
noisereport_cancels() {
    rc=0
    timeout 60 "$smokedir/noisereport" -timeout 1ms "$@" >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 3 ]; then
        echo "cancellation smoke: noisereport -timeout 1ms $* exited $rc, want 3" >&2
        exit 1
    fi
}
noisereport_cancels -parallel 4 "$smokedir/smoke.lttn"
noisereport_cancels -parallel 1 "$smokedir/smoke.lttn"
noisereport_cancels "$smokedir/smoke.lttnz"
rc=0
timeout 60 "$smokedir/noisebench" -exp ext1 -timeout 1ms >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "cancellation smoke: noisebench -timeout 1ms exited $rc, want 3" >&2
    exit 1
fi
rm -rf "$smokedir"

step "golden output (noisebench text + CSVs)"
# Every paper experiment at its default size, compared byte for byte
# with results/noisebench_full.txt and results/data/: the only check
# that reaches the mitigation, cluster, FTQ and co-location
# simulations end to end. A change that moves a paper number
# regenerates it with scripts/golden.sh -update.
scripts/golden.sh

step "pipeline benchmark smoke"
# A small-trace run of the analysis-pipeline benchmark: exercises its
# "sequential" row (noise.Analyze, the one-shard engine), the sharded
# raw path at each shard count, and the bit-identity check (the run
# aborts if any report diverges). The
# JSON lands in a scratch file — committed baselines in results/ are
# regenerated deliberately, not by CI.
go run ./cmd/noisebench -pipeline -pipeline-events 100000 -pipeline-reps 1 \
    -json "$(mktemp -d)/BENCH_pipeline.json"

step "pipeline regression gate (1M events)"
# Full-size run gated against the recorded performance trajectory: the
# best parallel wall time may not regress more than 10% relative to the
# last comparable entry (same GOMAXPROCS and event count) appended to
# results/BENCH_pipeline.json. Incomparable histories gate nothing, so
# a new machine shape passes and records its own baseline later. CI
# never appends — the trajectory grows only by a deliberate
# `noisebench -pipeline -pipeline-append results/BENCH_pipeline.json`.
go run ./cmd/noisebench -pipeline -pipeline-events 1000000 -pipeline-reps 3 \
    -pipeline-gate results/BENCH_pipeline.json -pipeline-gate-pct 10

step "repository benchmark smoke"
# bench/ is a module of its own, so ./... above never reaches it. Its
# tests run each workload at a tiny size and check the outputs, so a
# workload broken by a program change fails here, not in a benchmark run.
(cd bench && go test .)

step_done
echo "CI OK"
