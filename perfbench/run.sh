#!/usr/bin/env bash
# Builds the benchmark from the repository's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload noncontig --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. The build, the Go build cache,
# the compiler's scratch files and the go command's configuration and
# telemetry directory stay under .bench_build/ in that root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$(pwd)/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
