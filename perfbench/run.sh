#!/usr/bin/env bash
# Builds perfbench from source and runs it. Run from the repository root:
#   bash perfbench/run.sh --workload uniform-batch --seed 1 --seconds 15 --trace 0
# Build products, the Go cache and span dumps stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=-buildvcs=false \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
sha=unknown
if [ -d "$root/.git" ]; then
	sha=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" -git-sha "$sha" "$@"
