#!/usr/bin/env bash
# Build splay-bench from source into the checkout and run it.
#
#   bash bench/run.sh [flags]      (see bench/README.md; BENCHMARK.json's command)
#
# Everything the build writes stays inside the checkout: the Go build
# cache, the module cache, the go command's own config/telemetry files,
# the binary and traced runs' output all live under .bench_build/ at the
# repository root (.gitignore names it). The first run in a fresh
# checkout compiles the standard library into that cache (~20 s); later
# runs find everything up to date in under a second.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go build -C "$here" -o "$build/splay-bench" .
cd "$root"
exec "$build/splay-bench" "$@"
