#!/usr/bin/env bash
# Builds the benchmark and the ppmserved daemon from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 15 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/ppmserved" ]]; then
	echo "perfbench: run from the repository root; no Go module with cmd/ppmserved here" >&2
	exit 2
fi

if ! command -v go >/dev/null; then
	echo "perfbench: no go toolchain on PATH" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(
	cd "$root/perfbench"
	go build -o "$out/perfbench" .
	go build -o "$out/ppmserved" repro/cmd/ppmserved
) >&2

exec "$out/perfbench" -root "$root" -daemon "$out/ppmserved" "$@"
