#!/usr/bin/env bash
# Builds and runs the harmonyd benchmark from the repository root:
#
#   bash perfbench/run.sh --workload match --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the repository root: the Go build cache, the binary, the prepared
# stores and the per-seed answer records. The binary is built without
# paths or version-control stamps, so the same source gives the same
# binary in any checkout; the benchmark keys its reused state by the
# binary's digest.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/perfbench-state" "$@"
