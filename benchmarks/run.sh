#!/usr/bin/env bash
# Builds vnperf from source inside the checkout and runs it with the given
# arguments. This is the command BENCHMARK.json names: everything it writes —
# the Go build cache and the binary — goes under .bench_build in the checkout.
# Run it from the root of the repository.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/sim ] || [ ! -d benchmarks/vnperf ]; then
	echo "benchmarks/run.sh: run from the root of a full checkout (go.mod, internal/, benchmarks/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOTOOLCHAIN=local
if [ -z "${HOME:-}" ] && [ -z "${GOPATH:-}" ]; then
	export GOPATH="$build/gopath"
fi

go build -o "$build/vnperf" ./benchmarks/vnperf
exec "$build/vnperf" "$@"
