#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the write-ahead logs of the
# in-process fleet (removed when the run ends) and the span files of
# traced runs.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
