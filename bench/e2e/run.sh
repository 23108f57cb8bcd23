#!/usr/bin/env bash
# Builds busarb_sweep and the benchmark programs from this checkout's
# sources, then runs the end-to-end benchmark (bench/e2e/README.md).
#
#   bash bench/e2e/run.sh --workload paper-t41 --seed 7 --seconds 15 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build, relative to
# the checkout root) and is reused by later runs.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
for f in CMakeLists.txt src/CMakeLists.txt tools/busarb_sweep.cc; do
    if [[ ! -f $root/$f ]]; then
        echo "run.sh: $root/$f is missing; the benchmark builds busarb" \
             "from the checkout around it" >&2
        exit 2
    fi
done

build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build=$root/$build
mkdir -p "$build"

# The per-layer probe links busarb's internals; build it only when a
# traced run asks for it, so the end-to-end numbers never depend on it.
targets=(busarb_sweep busarb_bench)
prev=
for arg in "$@"; do
    [[ $prev == --trace && $arg == 1 ]] && targets+=(busarb_bench_layers)
    prev=$arg
done

log=$build/build.log
if ! { [[ -f $build/CMakeCache.txt ]] ||
       cmake -S "$root/bench/e2e" -B "$build" >"$log" 2>&1; } ||
   ! cmake --build "$build" -j 4 --target "${targets[@]}" >"$log" 2>&1
then
    tail -n 40 "$log" >&2
    echo "run.sh: build failed (full log: $log)" >&2
    exit 1
fi

exec "$build/busarb_bench" --root "$root" --build "$build" "$@"
