#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it
# with the given arguments (see e2ebench/README.md). Build outputs, the Go
# build cache and the benchmark's span/profile files stay inside the
# checkout: .bench_build/ and .bench_out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "$root/e2ebench" build -o "$build/e2ebench" .
cd "$root"
exec "$build/e2ebench" "$@"
