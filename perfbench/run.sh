#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# one workload. Run from the root of the repository:
#
#   bash perfbench/run.sh --workload serve-infer --seed 1 --seconds 24 --trace 0
#
# Every build product, cache and trace file lands under .bench_build/ in the
# checkout; nothing is read from or written to the user's Go caches.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
export CGO_ENABLED=0

if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -d "$root/.git" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
export PERFBENCH_COMMIT="${PERFBENCH_COMMIT:-unknown}"

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
