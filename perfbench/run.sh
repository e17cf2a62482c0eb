#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the run's scratch files (stores,
# CPU profiles, span traces) all go under $CARGO_TARGET_DIR, by default
# .bench_build. The last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -out "$build/perfbench-out" -repo "$root" "$@"
