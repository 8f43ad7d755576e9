#!/usr/bin/env bash
# Builds the benchmark and rmserved from the sources of the checkout it is
# run from, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, scratch files and traces all stay in
# .bench_build/ under the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/rmserved" repro/cmd/rmserved)
exec "$out/bin/perfbench" -build "$out" -rmserved "$out/bin/rmserved" "$@"
