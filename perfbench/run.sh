#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload kv-mw-sim --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# trace files all live under .bench_build/ so nothing outside the checkout
# is written.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
