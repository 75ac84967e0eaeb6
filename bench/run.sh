#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash bench/run.sh --workload campaign-ibm --seed 7 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# telemetry) stays under the build directory inside the checkout:
# $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod, internal/ and bench/ must exist)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$PWD/$build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd bench && go build -o "$build/snnbench" .)
exec "$build/snnbench" "$@"
