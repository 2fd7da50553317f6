#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it.
# Run from the repository root; every argument is passed to the benchmark binary:
#   bash perfbench/run.sh --workload pretrain --seed 1 --seconds 35 --trace 0
# The binary, the Go build cache and the go command's own config and
# temp files all stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
