#!/usr/bin/env bash
# BENCHMARK.json names this script as the benchmark command. It builds the
# benchmark from source into .bench_build/ and runs it from the checkout
# root. The go tool's build cache and its per-user files are pointed into
# .bench_build/ too, so a run writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$out/swsbench" .)
cd "$root"
exec "$out/swsbench" "$@"
