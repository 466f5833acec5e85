#!/usr/bin/env bash
# Builds itscs-serve and the benchmark from this checkout, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload quick_stream --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache too, so nothing outside the checkout is touched.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/itscs-serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/itscs-serve and perfbench/ not found)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0
export GOTMPDIR="$build/tmp"
export GOENV=off

go build -o "$build/itscs-serve" ./cmd/itscs-serve
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -serve "$build/itscs-serve" -work "$build/work" "$@"
