#!/usr/bin/env bash
# Builds dpgbench and runs it from the repository root, passing every
# argument through:
#
#   bash bench/run.sh --workload suite --seed 1 --seconds 18 --trace 0
#   bash bench/run.sh -seed 1 -runs 3 -out /tmp/dpgbench
#
# Everything the build and the run write (Go build cache, temporary files,
# binaries, workload inputs) stays under .bench_build/ in the repository.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/figures" || ! -f "$root/bench/go.mod" ]]; then
	echo "run.sh: run from the repository root (go.mod, cmd/ and bench/ not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user configuration
# directory.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bin/dpgbench" ./dpgbench)
exec "$build/bin/dpgbench" -repo "$root" -bin "$build/bin" "$@"
