#!/usr/bin/env bash
# Builds and runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
#
# The build and every Go cache stay inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/server" ]]; then
	echo "perfbench: run from the root of the ringlang repository" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
