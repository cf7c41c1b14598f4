#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments.  Run it from the repository root:
#
#   bash puntbench/run.sh --workload fig6 --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the binary and the temporary stores of the puntd
# workload.  It never downloads anything.
set -euo pipefail

root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/puntbench" ]; then
	echo "run.sh: run from the root of a punt checkout (go.mod and puntbench/ must be present)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its local telemetry counters under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS= CGO_ENABLED=0

(cd "$root/puntbench" && go build -o "$out/puntbench" .)
# The runtime hands freed heap back to the kernel with MADV_DONTNEED by
# default, so every reuse of it faults the pages in again: over 500 000
# faults in a 10-second puntd run, against 4 500 with MADV_FREE.  What a
# fault costs in a virtual machine follows the host's memory pressure, which
# is noise to this benchmark.  MADV_FREE lets the process reuse the pages
# without faults until the kernel needs them.  A setting already in GODEBUG
# comes later in the list and wins.
GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}" exec "$out/puntbench" "$@"
