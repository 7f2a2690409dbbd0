#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments. Run it from the checkout
# root:
#
#   bash e2ebench/run.sh --workload fire_sync --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, the workload databases and span dumps all
# stay under .bench_build/ (or $CARGO_TARGET_DIR when set), and HOME is
# pointed there too, so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/home"
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOFLAGS
export HOME=$out/home GOCACHE=$out/gocache GOPATH=$out/home/go GOTOOLCHAIN=local GOENV=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --dir "$out" "$@"
