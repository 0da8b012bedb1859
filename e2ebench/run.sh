#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# it with the given arguments, from the root of the checkout:
#
#   bash e2ebench/run.sh --workload vqe_sweep --seed 1 --seconds 25 --trace 0
#
# Every file the build or the run writes (Go build cache, binary, spill
# files, exported spans) stays under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd e2ebench && go build -o "$out/e2ebench" .)
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/e2ebench" --commit "$commit" --spans "$out/spans" "$@"
