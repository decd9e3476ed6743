#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
# Everything the toolchain writes (build cache, temporaries, the binary)
# stays under .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$here" build -o "$build/policybench" . >&2
cd "$root"
exec "$build/policybench" "$@"
