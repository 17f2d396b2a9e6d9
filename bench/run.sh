#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness with everything
# the Go toolchain writes — build cache, temporaries, telemetry counters —
# kept under .bench_build/ in the checkout, then runs it from the
# repository root. The harness builds cmd/topod with the same environment.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
