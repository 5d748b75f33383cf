#!/usr/bin/env bash
# Builds the benchmark (a module of its own, benchmark/go.mod, that imports
# the repository's packages through a replace directive) and runs it with
# the arguments given. Everything it writes stays inside the checkout:
# build outputs and Go's caches under .bench_build/, data dirs and traces
# under benchmark/out/.
set -euo pipefail
root=$(pwd)
here="$root/benchmark"
build="$root/.bench_build"
if [ ! -f "$here/go.mod" ]; then
	echo "run.sh: run from the repository root (bash benchmark/run.sh ...)" >&2
	exit 2
fi
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/xdg" GOTOOLCHAIN=local GOWORK=off
bin="$build/rpq-benchmark"
# Up to date, this rewrites nothing: go compares build IDs and leaves the
# binary alone.
(cd "$here" && go build -o "$bin" .)
exec "$bin" -out "$here/out" "$@"
