#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload warm_serve --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, the Go build cache, Go's own
# config) stays under .bench_build in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/main.go ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/perfbench" ./perfbench
# setup_s counts from here: the exec time, in Unix nanoseconds.
PERFBENCH_LAUNCH_NS=$(date +%s%N)
export PERFBENCH_LAUNCH_NS
exec "$out/perfbench" "$@"
