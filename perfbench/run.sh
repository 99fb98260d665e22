#!/usr/bin/env bash
# Builds ogbench, opgated and the benchmark program (perfbench) from the
# checkout this is run in, then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --selfcheck --runs 5      # spread of every metric vs its bound
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, scratch stores (removed when
# a run ends) and the span files of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/ogbench || ! -d cmd/opgated || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a full opgate checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off

go build -o "$build/bin/" ./cmd/ogbench ./cmd/opgated
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" --bin "$build/bin" --work "$build/work" --traces "$build/traces" "$@"
