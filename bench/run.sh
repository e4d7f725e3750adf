#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root, passing every
# argument through:
#
#   bash bench/run.sh --workload offline --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -compare parent.jsonl change.jsonl
#
# Everything the Go toolchain and the benchmark write (build cache, binaries,
# generated inputs) stays under .bench_build/ in the current directory, and
# the toolchain never goes to the network.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/noised ] || [ ! -f bench/go.mod ]; then
	echo "bench: run from the repository root (go.mod, cmd/ and bench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOTOOLCHAIN=local \
	GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR" "$out/bin"

(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
