#!/usr/bin/env bash
# Builds the benchmark and the prefetchd daemon from this checkout's
# sources, then runs one benchmark invocation with the given arguments:
#
#   bash perfbench/run.sh --workload sim-context --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build output, cache, span file and
# breakdown stays under .bench_build/ in the checkout, and nothing is
# downloaded: the module needs only the standard library.
set -euo pipefail

out="$(pwd)/.bench_build"
# XDG_CONFIG_HOME keeps the go command's telemetry counters, and TMPDIR
# its build scratch, in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
mkdir -p "$out/tmp"

go build -o "$out/prefetchd" ./cmd/prefetchd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -daemon "$out/prefetchd" -out "$out" "$@"
