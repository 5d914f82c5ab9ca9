#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# one workload. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload ingest-steady --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary and the benchmark's
# temporary WAL and segment directories.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
if [ ! -f "$root/go.mod" ]; then
	echo "run.sh: the stcps sources are missing (no go.mod at $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/gotmp" "$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" -tmp "$build/tmp" "$@"
