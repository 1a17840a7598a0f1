#!/usr/bin/env bash
# Builds the whole-pipeline benchmark from source and runs it. Invoke from
# the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 20130522 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, GOPATH, the build's temporary
# files and the go command's config directory (its local telemetry)
# included.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
