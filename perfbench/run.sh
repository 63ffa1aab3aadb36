#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build outputs, the Go build cache,
# temporary files, durable stores and span files all stay under
# .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-mod=mod
commit=unknown
if [ -d .git ] && command -v git >/dev/null; then
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" --commit "$commit" "$@"
