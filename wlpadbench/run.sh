#!/usr/bin/env bash
# Builds the wlpad benchmark from the checkout it sits in and runs it.
# Run from the repository root, for example:
#
#   bash wlpadbench/run.sh --workload cold_batch --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced run's span logs go to
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. Self-tests: (cd wlpadbench && go test ./...).
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/server" ] || [ ! -f "$root/wlpadbench/go.mod" ]; then
	echo "wlpadbench: run from the root of a wlpa checkout (go.mod, internal/server and wlpadbench/ must exist)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/go-build" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/wlpadbench" && go build -o "$out/wlpadbench" .)
exec "$out/wlpadbench" --spans-dir "$out" "$@"
