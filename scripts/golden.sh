#!/usr/bin/env bash
# Golden-output gate for the paper reproduction.
#
# Runs every noisebench experiment at its default size, writing the CSV
# series into a temporary directory, and compares the rendered text
# with results/noisebench_full.txt and every CSV with results/data/.
# This is the one check that reaches the mitigation, cluster, FTQ and
# co-location simulations end to end. The text's last line names the
# data directory, so it is normalised to results/data before comparing.
#
#   scripts/golden.sh          # check: fail on any difference
#   scripts/golden.sh -update  # rewrite results/noisebench_full.txt and results/data/
#
# A change that moves a paper number regenerates the golden with
# -update in the same commit and says what moved in EXPERIMENTS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

text=results/noisebench_full.txt
data=results/data

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/noisebench" ./cmd/noisebench
"$tmp/noisebench" -data "$tmp/data" >"$tmp/out.txt"
sed -i -E "s|^data series written under .*\$|data series written under $data|" "$tmp/out.txt"

if [ "${1:-}" = "-update" ]; then
    cp "$tmp/out.txt" "$text"
    rm -rf "$data"
    cp -r "$tmp/data" "$data"
    echo "golden: wrote $text and $(ls "$data" | wc -l) file(s) under $data"
    exit 0
fi

rc=0
diff -u "$text" "$tmp/out.txt" || rc=1
diff -r "$data" "$tmp/data" >"$tmp/data.diff" || rc=1
if [ "$rc" -ne 0 ]; then
    head -n 50 "$tmp/data.diff" >&2
    echo "golden: output differs from $text / $data; if the change is meant, rerun with -update and list what moved in EXPERIMENTS.md" >&2
    exit 1
fi
echo "golden: OK ($text and $(ls "$data" | wc -l) file(s) under $data)"
