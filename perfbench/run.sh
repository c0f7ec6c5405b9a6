#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it.
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build cache, binary and the log-store
# directories all live under .bench_build/, so the benchmark reads and
# writes nothing outside the checkout. Without the repository sources
# next to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
# The go command's build cache, module cache, configuration and telemetry
# counters all default to the home directory; keep them in the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --dir "$build/tmp" "$@"
