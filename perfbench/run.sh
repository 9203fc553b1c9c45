#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload certify-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# XDG_CONFIG_HOME keeps the go command's config and telemetry in the
# checkout too; the module has no dependencies to fetch.
(cd "$root/perfbench" &&
  env GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off \
    GOPROXY=off GOSUMDB=off CGO_ENABLED=0 \
    go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/runs" "$@"
