#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it. Run from anywhere:
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and temporary files stay under
# .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -tmp "$build/tmp" -out "$build/out" "$@"
