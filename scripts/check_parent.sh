#!/bin/sh
# Byte-identity check against an earlier revision. Builds <rev> from
# git and the working tree, runs one fixed corpus on both builds, and
# diffs the outputs item by item:
#
#   - --help and --list-* of the four tools;
#   - the 10 examples with their ctest arguments;
#   - cost_comparison, and busarb_sweep's tables for each paper grid in
#     bench/tables at batch-size 200, or as written for a grid that
#     sets batch-size itself (the working tree's grids on both builds);
#   - busarb_sweep's stdout, CSV, metrics, trace and snapshots for a
#     closed grid and an open mmpp grid (with out-of-order granters),
#     in-process and at --shards 2;
#   - cross-build resume: each build --resumes the closed grid's
#     --shards 2 directory the other build wrote (every cell is
#     checkpointed, so it only merges), and its CSV, metrics, trace
#     and snapshots must equal the writer's in-process ones, its stdout
#     the writer's sharded one, and the manifests must not change
#     (items resume-closed.<writer>-to-<reader>.*);
#   - busarb_sweep's stdout, CSV, metrics and trace for settle-timed
#     --grid files over every protocol whose settle rounds come from
#     ArbitrationPass::settle() (the RR family, FCFS and hybrid with
#     their counter variants, fixed, AAP and WRR), closed and open mmpp,
#     at 10, 70 and 130 agents: one, two and three mask words;
#   - busarb_sim's stdout, batches CSV and histogram CSV, a run with
#     --histogram-csv and --metrics-out (whose metrics hold
#     wait.histogram), and three flag-built runs that between them give
#     every scenario flag a value other than its default, with their
#     metrics (whose scenario.spec annotation is the flag-built spec's
#     format());
#   - busarb_report in md and html.
#
# Host timing is masked: the value of elapsed_ms=, the summary's sim
# wall time and the sweep table's ms column; trailing blanks are
# dropped. Timing CSVs and shard manifests are not compared byte for
# byte (manifests carry elapsedMs); the cross-build resume items check
# that one build reads the other's checkpoints. A difference that
# disappears under `tr -s ' -'` is reported as table padding only.
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
harnesses="cost_comparison"
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

CLOSED="--protocols rr1,fcfs1,aap1 --agents 8 --cv 0.5 --loads 0.5,2,7.5
        --batches 3 --batch-size 400"
# aap1 and wrr grant out of arrival order, so the fairness auditor's
# bypass and inversion counts take their out-of-order paths here.
OPEN="--source open:dist=mmpp,burst=8,gap=32,ratio=10 --agents 16
      --loads 0.5,0.9 --batches 3 --batch-size 400
      --protocols rr1,fcfs1,aap1,wrr:weights=4/4/4/4/1/1/1/1/1/1/1/1/1/1/1/1"
OBSERVE="--fairness --health"
SETTLE_PROTOCOLS="rr1 rr2 rr3 fcfs1 fcfs2 hybrid fcfs1:bits=2
                  fcfs2:bits=2,overflow=wrap hybrid:bits=2 fixed aap1 aap2
                  wrr"

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
        capture "bench.$h" "$bin/bench/$h"
    done
    for grid in "$root"/bench/tables/*.grid; do
        name="$(basename "$grid" .grid)"
        cp "$grid" "$name.grid"
        grep -q '^batch-size *=' "$grid" ||
            printf '\n[run]\nbatch-size = 200\n' >> "$name.grid"
        capture "table.$name" "$sweep" --grid "$name.grid"
        rm "$name.grid"
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
            rm -f "timing-$grid-$mode.csv"
            # The closed grid's checkpoints stay for resume_closed.
            if [ "$grid-$mode" = closed-shards ]; then
                mv shards-closed "$2.shards"
            else
                rm -rf "shards-$grid"
            fi
        done
    done

    for agents in 10 70 130; do
        for source in closed mmpp; do
            item="settle-$agents-$source"
            {
                printf '[workload]\nfamily = equal\nagents = %s\ncv = 1\n' \
                    "$agents"
                [ "$source" = closed ] || printf 'source = open:dist=mmpp\n'
                printf '\n[bus]\nsettle-timing = true\n'
                printf '\n[run]\nbatches = 3\nbatch-size = 300\n'
                printf 'warmup = 300\n'
                # shellcheck disable=SC2086
                printf '\n[sweep]\nloads = 0.9 2\nprotocols =%s\n' \
                    "$(printf ' %s' $SETTLE_PROTOCOLS)"
            } > "$item.grid"
            capture "$item.stdout" "$sweep" --grid "$item.grid" \
                --csv "$item.csv" --metrics-out "$item.metrics.csv" \
                --trace-out "$item.trace"
            rm "$item.grid"
        done
    done

    capture sim-closed.stdout "$sim" --protocol fcfs1 --compare rr1 \
        --agents 8 --load 2.0 --batches 3 --batch-size 400 --warmup 400 \
        --fairness --health --batches-csv sim.batches.csv \
        --histogram-csv sim.histogram.csv
    capture sim-histogram.stdout "$sim" --protocol rr1 --compare fcfs1 \
        --agents 6 --load 1.5 --batches 3 --batch-size 300 --warmup 300 \
        --histogram-csv sim-histogram.csv \
        --metrics-out sim-histogram.metrics.csv
    # shellcheck disable=SC2086
    capture sim-open.stdout "$sim" --protocol rr1 --agents 16 --load 0.9 \
        --source open:dist=mmpp,burst=8,gap=32,ratio=10 --batches 3 \
        --batch-size 400 --warmup 400
    capture sim-unequal.stdout "$sim" --protocol fcfs1 --compare rr1 \
        --agents 6 --load 1.5 --cv 0.5 --unequal-factor 2 \
        --max-outstanding 2 --source open:dist=mmpp --batches 3 \
        --batch-size 300 --warmup 100 --seed 0100 --arb-overhead 0.25 \
        --settle-timing --worst-case-settle \
        --metrics-out sim-unequal.metrics.csv
    capture sim-hot.stdout "$sim" --protocol rr1 --agents 8 --load 2.0 \
        --cv 2 --hot-agents 2 --hot-factor 3 --batches 3 --batch-size 300 \
        --warmup 300 --metrics-out sim-hot.metrics.csv
    capture sim-worst-case.stdout "$sim" --protocol rr1 --worst-case \
        --agents 6 --cv 0 --batches 3 --batch-size 300 --warmup 300 \
        --metrics-out sim-worst-case.metrics.csv

    for format in md html; do
        capture "report-$format.stdout" "$bin/tools/busarb_report" \
            --protocol rr1 --agents 6 --load 2.0 --batches 4 \
            --batch-size 400 --warmup 400 --snapshot-every 100 \
            --format "$format" --out "report.$format"
    done
    cd "$root"
}

# resume_closed <writer> <reader> <reader-build-dir>: the reader's
# busarb_sweep --resumes the closed grid's --shards 2 directory that
# the writer's corpus left. Every cell is checkpointed, so it only
# merges, and the manifests must come out unchanged. Its output names
# match the sweep-closed-shards item's.
resume_closed() {
    mkdir "$tmp/resume-$1-to-$2"
    cd "$tmp/resume-$1-to-$2"
    cat "$tmp/out-$1.shards"/*.manifest.jsonl > manifests.before
    # shellcheck disable=SC2086
    capture sweep-closed-shards.stdout "$3/tools/busarb_sweep" $CLOSED \
        $OBSERVE --shards 2 --shard-dir "$tmp/out-$1.shards" --resume \
        --csv sweep-closed-shards.csv \
        --metrics-out sweep-closed-shards.metrics.csv \
        --trace-out sweep-closed-shards.trace --snapshot-every 100 \
        --snapshot-out sweep-closed-shards.jsonl \
        --timing-csv timing-closed-shards.csv
    rm -f timing-closed-shards.csv
    cat "$tmp/out-$1.shards"/*.manifest.jsonl > manifests.after
    cd "$root"
}

echo "running the corpus ..."
run_corpus "$tmp/rev-build" "$tmp/out-rev"
run_corpus "$build" "$tmp/out-tree"
echo "resuming each build's checkpoints with the other ..."
resume_closed rev tree "$build"
resume_closed tree rev "$tmp/rev-build"

mask() {
    sed -E -e 's/(elapsed_ms=)[0-9]+/\1<ms>/g' \
        -e 's/(sim wall time +)[0-9]+ ms/\1<ms> ms/' \
        -e 's/ +$//' "$1"
}
mask_table() {
    mask "$1" | sed -E '/^  /s/ [0-9]+$/ <ms>/'
}

status=0
# compare_item <item> <expected-file> <actual-file>
compare_item() {
    case "$1" in
      *.trace)
        if cmp -s "$2" "$3"; then echo "same     $1"; else
            echo "differs  $1"
            status=1
        fi
        return ;;
      sweep-*.table) masker=mask_table ;;
      *) masker=mask ;;
    esac
    $masker "$2" > "$tmp/a"
    $masker "$3" > "$tmp/b"
    if cmp -s "$tmp/a" "$tmp/b"; then
        echo "same     $1"
        return
    fi
    status=1
    if [ "$(tr -s ' -' < "$tmp/a")" = "$(tr -s ' -' < "$tmp/b")" ]; then
        echo "differs  $1 (table padding only)"
    else
        echo "differs  $1"
    fi
    diff -u "$tmp/a" "$tmp/b" | sed -n '3,40p'
}

for f in $(cd "$tmp/out-rev" && ls); do
    if [ ! -e "$tmp/out-tree/$f" ]; then
        echo "differs  $f (missing from the working tree)"
        status=1
        continue
    fi
    compare_item "$f" "$tmp/out-rev/$f" "$tmp/out-tree/$f"
done
for f in $(cd "$tmp/out-tree" && ls); do
    if [ ! -e "$tmp/out-rev/$f" ]; then
        echo "differs  $f (new in the working tree)"
        status=1
    fi
done
for pair in rev:tree tree:rev; do
    writer="${pair%:*}"
    reader="${pair#*:}"
    for ext in stdout csv metrics.csv trace jsonl; do
        # The in-process stdout names other files and another --jobs;
        # the sharded stdout is the reference there.
        mode=inproc
        [ "$ext" != stdout ] || mode=shards
        compare_item "resume-closed.$writer-to-$reader.$ext" \
            "$tmp/out-$writer/sweep-closed-$mode.$ext" \
            "$tmp/resume-$writer-to-$reader/sweep-closed-shards.$ext"
    done
    compare_item "resume-closed.$writer-to-$reader.manifests" \
        "$tmp/resume-$writer-to-$reader/manifests.before" \
        "$tmp/resume-$writer-to-$reader/manifests.after"
done
exit "$status"
