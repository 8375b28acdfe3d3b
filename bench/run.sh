#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the toolchain writes (build cache, temporary
# files, the binary) stays under .bench_build/ at the checkout's root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-modcacherw

(cd "$here" && go build -o "$build/rosbench" .)

cd "$root"
exec "$build/rosbench" -out bench/out "$@"
