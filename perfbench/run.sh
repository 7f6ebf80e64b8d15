#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it:
#
#   bash perfbench/run.sh --workload suite-jobs --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every file the Go toolchain writes
# (build cache, temporary files) stays under .bench_build/ in the
# checkout, next to the benchmark binary and the traced run's spans.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOFLAGS= GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off

commit=unknown
if rev=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null); then
	commit=$rev
fi

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" -commit "$commit" "$@"
