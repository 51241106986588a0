#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the root of
# the checkout:
#
#   bash e2ebench/run.sh --workload adhoc --seed 1 --seconds 25 --trace 0
#   bash e2ebench/run.sh steady --runs 5 --seconds 25
#
# The binary, the Go build cache, durable engines' data and trace files
# stay under .bench_build (or $CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off E2EBENCH_OUT="$out"
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
