#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given. Everything it
# writes stays in the checkout: the Go build cache, the go command's own
# configuration directory (its telemetry counters) and the binaries under
# .bench_build/, logs and results under .bench_out/.
#
#   bash benchmark/run.sh -seed 1
#   bash benchmark/run.sh --workload serve_mix --seed 1 --seconds 25 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -C "$here" -o "$build/bin/benchmark" .
cd "$root"
exec "$build/bin/benchmark" "$@"
