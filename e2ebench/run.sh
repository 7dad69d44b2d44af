#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments, from the repository root:
#
#   bash e2ebench/run.sh --workload batch-tree --seed 1 --seconds 30 --trace 0
#
# Build state (Go build cache, temporary files, the binary, trace
# spans) stays under .bench_build in the working directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
