#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from this
# checkout's source, then run it with the caller's arguments.
# Everything either step leaves behind — Go's build cache, module
# cache, temp and telemetry directories, the binary, the run's WAL,
# index and span files — stays under .bench_build/ at the checkout
# root, which .gitignore names.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/reachbench" .) >&2
exec "$out/reachbench" "$@"
