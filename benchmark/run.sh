#!/usr/bin/env bash
# One command for the front-door benchmark: build the runner inside the
# checkout's own .bench_build (Go build cache and temp files included, so
# nothing is written outside the checkout) and hand every argument to it.
#
#   bash benchmark/run.sh                      # four workloads + traced replay
#   bash benchmark/run.sh -agree               # two sets, PASS/FAIL per metric
#   bash benchmark/run.sh --workload warm_single --seed 3 --seconds 10 --trace 0
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# The go command keeps its env file and telemetry under the user's config
# directory and scratch files under TMPDIR: both go inside the checkout too.
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# A caller with a bare PATH still finds a toolchain installed the usual way.
PATH="$PATH:/usr/local/go/bin"
command -v go >/dev/null || { echo "benchmark: the go toolchain is not on PATH" >&2; exit 1; }
go build -C "$here" -o "$build/frontdoor" .
exec "$build/frontdoor" -root "$root" "$@"
