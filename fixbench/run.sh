#!/usr/bin/env bash
# Builds the fix-pipeline benchmark from source and runs it. Run from the
# repository root, e.g.
#
#   bash fixbench/run.sh --workload catchup-faulted --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (Go build cache, binary, journal files,
# spans, result records) stays under .bench_build/ in the current
# directory. Without the repository around fixbench/ the build fails and
# the script exits non-zero before printing a result.
set -euo pipefail
out="$(pwd)/.bench_build/fixbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C fixbench build -o "$out/fixbench" .
exec "$out/fixbench" --out "$out" "$@"
