#!/usr/bin/env bash
# Builds the benchmark against the sources of the checkout it is run from
# and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload recon-clean --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write stays under .bench_build/ in that checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: run from the root of a full checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's user config (go env file, telemetry counters) and the
# module cache would otherwise live in the home directory.
export XDG_CONFIG_HOME="$out/config" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
