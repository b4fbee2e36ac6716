#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash benchmark/run.sh -workload paper_sweep -seed 0 -seconds 20 -trace 0
#
# The build cache, module cache, temporary files and binary live in
# .bench_build/ at the root, so a run writes nothing outside the checkout.
# The toolchain is used as installed and nothing is downloaded: the
# benchmark module needs only the repository's own module, which sits at
# ../ from this script.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C benchmark build -o "$build/nocbench" .
exec "$build/nocbench" "$@"
