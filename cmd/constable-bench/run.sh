#!/usr/bin/env bash
# Builds constable-bench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/constable-bench/run.sh --workload core-long --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and everything the benchmark writes stay under
# .bench_build/ in the current directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$here" build -o "$out/constable-bench" . >&2
exec "$out/constable-bench" "$@"
