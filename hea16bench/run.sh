#!/usr/bin/env bash
# Builds hea16bench from this checkout and runs it; arguments pass through:
#   bash hea16bench/run.sh --workload hea16-swap --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build cache, binary, scratch files and
# traces all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd "$src" && go build -o "$out/hea16bench" .)
exec "$out/hea16bench" --work "$out/hea16bench-work" "$@"
