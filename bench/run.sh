#!/usr/bin/env bash
# Build file and entry point of the benchmark: compiles ./bench from the
# checkout's sources into .bench_build/ and runs it with the arguments
# given. Every file the Go toolchain writes (build cache, module cache,
# telemetry counters) is kept inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod ]]; then
	echo "bench/run.sh: no go.mod in $PWD: the program under test is not in this checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
# With telemetry in its default "local" mode the first go command in a
# fresh config directory starts a detached child of itself (the counter
# uploader) that outlives the command; "off" keeps go from starting it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/earthbench" ./bench
exec "$out/earthbench" "$@"
