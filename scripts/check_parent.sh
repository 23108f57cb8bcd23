#!/bin/sh
# Byte-identity check against an earlier revision. Builds <rev> from
# git and the working tree, runs one fixed corpus on both builds, and
# diffs the outputs item by item:
#
#   - --help and --list-* of the four tools;
#   - the 10 examples with their ctest arguments;
#   - the 15 bench harnesses at BUSARB_BENCH_BATCH=200;
#   - busarb_sweep's stdout, CSV, metrics, trace and snapshots for a
#     closed grid and an open mmpp grid, in-process and at --shards 2;
#   - busarb_sweep's stdout, CSV, metrics and trace for settle-timed
#     --grid files at 70 agents (two mask words) over the FCFS and
#     hybrid counter specs, closed and open mmpp;
#   - busarb_sim's stdout, batches CSV and histogram CSV;
#   - busarb_report in md and html.
#
# Host timing is masked: the value of elapsed_ms=, the summary's sim
# wall time and the sweep table's ms column; trailing blanks are
# dropped. Timing CSVs and shard manifests are not compared. A
# difference that disappears under `tr -s ' -'` is reported as table
# padding only.
#
# Prints "same" or "differs" per item and a diff for each difference,
# and exits 1 on any difference. It is not a ctest: it needs git
# history and a second build.
#
# The revision is unpacked with `git archive` and built under $TMPDIR
# (default /tmp), so the repository gains no worktree or ref.
#
# Usage: scripts/check_parent.sh <rev> [build-dir]
#   <rev>       the revision to compare against, e.g. HEAD~1
#   build-dir   the working tree's build directory (default: build);
#               configured and built before the corpus runs
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 <rev> [build-dir]" >&2
    exit 2
fi
rev="$1"
root="$(git rev-parse --show-toplevel)"
build="$(cd "$root" && mkdir -p "${2:-build}" && cd "${2:-build}" && pwd)"
if ! git -C "$root" rev-parse --verify --quiet "$rev^{commit}" \
        > /dev/null; then
    echo "$0: unknown revision '$rev'" >&2
    exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

tools="busarb_sim busarb_sweep busarb_trace busarb_report"
examples="quickstart:1.0 fairness_demo:6 priority_traffic:0.2
          multi_outstanding:2 custom_protocol bus_monitor:rr3 trace_replay
          multiprocessor_speedup burst_dynamics:3 bursty_sources"
harnesses="table_4_1_fairness table_4_2_wait_variance figure_4_1_wait_cdf
           table_4_3_overlap table_4_4_unequal_load table_4_5_worst_case
           ablation_arb_overhead ablation_fcfs_counter ablation_rr_impls
           ablation_fcfs_incr_window ablation_settle_timing
           ablation_burstiness ablation_batch_size hybrid_eval
           cost_comparison"
targets="busarb_sim_tool busarb_sweep busarb_trace busarb_report $harnesses"
for e in $examples; do
    targets="$targets ${e%%:*}"
done
jobs="$(nproc 2> /dev/null || echo 2)"

# build <source-dir> <build-dir>
build_tree() {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release > "$tmp/cmake.log" ||
        { cat "$tmp/cmake.log" >&2; exit 1; }
    # shellcheck disable=SC2086
    cmake --build "$2" --parallel "$jobs" --target $targets \
        > "$tmp/cmake.log" 2>&1 || { cat "$tmp/cmake.log" >&2; exit 1; }
}

mkdir "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
echo "building $rev ..."
build_tree "$tmp/rev" "$tmp/rev-build"
echo "building the working tree in $build ..."
build_tree "$root" "$build"

# Runs one command with stdout and stderr captured, its exit status
# appended: capture <out-file> <command...>
capture() {
    out="$1"
    shift
    set +e
    "$@" > "$out" 2>&1
    echo "exit $?" >> "$out"
    set -e
}

CLOSED="--protocols rr1,fcfs1,aap1 --agents 8 --loads 0.5,2,7.5
        --batches 3 --batch-size 400"
OPEN="--source open:dist=mmpp,burst=8,gap=32,ratio=10 --agents 16
      --loads 0.5,0.9 --protocols rr1,fcfs1 --batches 3 --batch-size 400"
OBSERVE="--fairness --health"
SETTLE_PROTOCOLS="fcfs1 fcfs2 hybrid fcfs1:bits=2 fcfs2:bits=2,overflow=wrap
                  hybrid:bits=2"

# run_corpus <build-dir> <out-dir>: every command runs inside <out-dir>
# with relative paths, so the two builds print identical paths.
run_corpus() {
    bin="$1"
    mkdir -p "$2"
    cd "$2"
    sim="$bin/tools/busarb_sim"
    sweep="$bin/tools/busarb_sweep"

    for t in $tools; do
        capture "$t.help" "$bin/tools/$t" --help
    done
    for t in busarb_sim busarb_sweep busarb_report; do
        capture "$t.list-protocols" "$bin/tools/$t" --list-protocols
        capture "$t.list-workloads" "$bin/tools/$t" --list-workloads
    done

    for e in $examples; do
        name="${e%%:*}"
        arg=""
        [ "$name" = "$e" ] || arg="${e#*:}"
        mkdir "example-$name"
        # shellcheck disable=SC2086
        (cd "example-$name" &&
            capture "../example.$name" "$bin/examples/$name" $arg)
        rm -rf "example-$name"
    done

    for h in $harnesses; do
        capture "bench.$h" env BUSARB_BENCH_BATCH=200 "$bin/bench/$h"
    done

    for grid in closed open; do
        if [ "$grid" = closed ]; then axes="$CLOSED"; else axes="$OPEN"; fi
        # shellcheck disable=SC2086
        capture "sweep-$grid.table" "$sweep" $axes $OBSERVE
        for mode in inproc shards; do
            shard=""
            [ "$mode" = inproc ] ||
                shard="--shards 2 --shard-dir shards-$grid"
            # shellcheck disable=SC2086
            capture "sweep-$grid-$mode.stdout" "$sweep" $axes $OBSERVE \
                $shard --csv "sweep-$grid-$mode.csv" \
                --metrics-out "sweep-$grid-$mode.metrics.csv" \
                --trace-out "sweep-$grid-$mode.trace" \
                --snapshot-every 100 --snapshot-out "sweep-$grid-$mode.jsonl" \
                --timing-csv "timing-$grid-$mode.csv"
            rm -rf "shards-$grid" "timing-$grid-$mode.csv"
        done
    done

    for source in closed mmpp; do
        {
            printf '[workload]\nfamily = equal\nagents = 70\ncv = 1\n'
            [ "$source" = closed ] || printf 'source = open:dist=mmpp\n'
            printf '\n[bus]\nsettle-timing = true\n'
            printf '\n[run]\nbatches = 3\nbatch-size = 300\nwarmup = 300\n'
            # shellcheck disable=SC2086
            printf '\n[sweep]\nloads = 0.9 2\nprotocols =%s\n' \
                "$(printf ' %s' $SETTLE_PROTOCOLS)"
        } > "settle-$source.grid"
        capture "settle-$source.stdout" "$sweep" --grid "settle-$source.grid" \
            --csv "settle-$source.csv" \
            --metrics-out "settle-$source.metrics.csv" \
            --trace-out "settle-$source.trace"
        rm "settle-$source.grid"
    done

    capture sim-closed.stdout "$sim" --protocol fcfs1 --compare rr1 \
        --agents 8 --load 2.0 --batches 3 --batch-size 400 --warmup 400 \
        --fairness --health --batches-csv sim.batches.csv \
        --histogram-csv sim.histogram.csv
    # shellcheck disable=SC2086
    capture sim-open.stdout "$sim" --protocol rr1 --agents 16 --load 0.9 \
        --source open:dist=mmpp,burst=8,gap=32,ratio=10 --batches 3 \
        --batch-size 400 --warmup 400

    for format in md html; do
        capture "report-$format.stdout" "$bin/tools/busarb_report" \
            --protocol rr1 --agents 6 --load 2.0 --batches 4 \
            --batch-size 400 --warmup 400 --snapshot-every 100 \
            --format "$format" --out "report.$format"
    done
    cd "$root"
}

echo "running the corpus ..."
run_corpus "$tmp/rev-build" "$tmp/out-rev"
run_corpus "$build" "$tmp/out-tree"

mask() {
    sed -E -e 's/(elapsed_ms=)[0-9]+/\1<ms>/g' \
        -e 's/(sim wall time +)[0-9]+ ms/\1<ms> ms/' \
        -e 's/ +$//' "$1"
}
mask_table() {
    mask "$1" | sed -E '/^  /s/ [0-9]+$/ <ms>/'
}

status=0
for f in $(cd "$tmp/out-rev" && ls); do
    a="$tmp/out-rev/$f"
    b="$tmp/out-tree/$f"
    if [ ! -e "$b" ]; then
        echo "differs  $f (missing from the working tree)"
        status=1
        continue
    fi
    case "$f" in
      *.trace)
        if cmp -s "$a" "$b"; then echo "same     $f"; else
            echo "differs  $f"
            status=1
        fi
        continue ;;
      sweep-*.table) masker=mask_table ;;
      *) masker=mask ;;
    esac
    $masker "$a" > "$tmp/a"
    $masker "$b" > "$tmp/b"
    if cmp -s "$tmp/a" "$tmp/b"; then
        echo "same     $f"
        continue
    fi
    status=1
    if [ "$(tr -s ' -' < "$tmp/a")" = "$(tr -s ' -' < "$tmp/b")" ]; then
        echo "differs  $f (table padding only)"
    else
        echo "differs  $f"
    fi
    diff -u "$tmp/a" "$tmp/b" | sed -n '3,40p'
done
for f in $(cd "$tmp/out-tree" && ls); do
    if [ ! -e "$tmp/out-rev/$f" ]; then
        echo "differs  $f (new in the working tree)"
        status=1
    fi
done
exit "$status"
