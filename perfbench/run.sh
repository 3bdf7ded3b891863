#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload replay-week --seed 1 --seconds 3 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ in that directory (Go build cache and the binary included).
set -euo pipefail
root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/tmp" "${build}/config"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp" GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
if ! (cd "${root}/perfbench" && go build -o "${build}/bin/perfbench" .) >&2; then
	echo "perfbench: build failed (run from the repository root)" >&2
	exit 3
fi
exec "${build}/bin/perfbench" "$@"
