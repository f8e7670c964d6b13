#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from the checkout's
# sources, then run it with the arguments given
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Nothing is read or written outside the checkout: Go's build cache, its
# config and telemetry directory, temporary files and the stream sender's
# spill files all go under .bench_build/, which .gitignore names.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ ! -f go.mod ] || [ ! -d internal ]; then
    echo "benchmark/run.sh: the repository's sources are not here (no go.mod, no internal/)" >&2
    exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
# The checkout need not be a git repository; the benchmark asks git for the
# commit itself and says "unknown" when there is none.
export GOFLAGS=-buildvcs=false

go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
