#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Every build artefact stays under .bench_build at the
# checkout root, so nothing is read or written outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOENV=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
