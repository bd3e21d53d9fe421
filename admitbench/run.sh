#!/usr/bin/env bash
# Builds the admission benchmark from source and runs it with the given
# flags. Run from the repository root:
#
#   bash admitbench/run.sh --workload hybrid-knee --seed 1 --seconds 20 --trace 0
#
# Everything it builds, caches or writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
(cd "$root/admitbench" && go build -o "$out/admitbench" .)
exec "$out/admitbench" "$@"
