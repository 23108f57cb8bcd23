#!/bin/sh
# Tier-1 integration check for the sharded sweep orchestration:
#
#   1. `--shards 4` must produce byte-identical artifacts — results
#      CSV, binary trace, metrics export, and fairness/health snapshot
#      JSONL — to the same sweep run in a single process. The merge is
#      deterministic by construction (workers checkpoint full encoded
#      results; the coordinator re-runs the identical emission code),
#      so any divergence is a real bug, not noise.
#   2. Re-running over existing checkpoints without --resume must
#      refuse with exit 2 and tell the user to pass --resume.
#   3. Crash recovery: SIGKILL the workers and the coordinator
#      mid-sweep, then `--resume` must finish the remaining cells and
#      reproduce the reference bytes exactly — no duplicated and no
#      dropped cells.
#   4. A corrupt checkpoint (flipped hex digit in a cell record) and a
#      manifest version mismatch must both exit 2, never silently
#      merge bad data.
#   5. Two paper grids' [table] output at --shards 2 must equal the
#      in-process tables (the elapsed_ms line masked); Table 4.3's
#      columns read the waiting-time histograms in the records.
#   6. A --resume under a different --shards must exit 2 naming
#      --shards before any task file is written or any worker runs.
#
# Usage: check_shard.sh /path/to/busarb_sweep
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 /path/to/busarb_sweep" >&2
    exit 2
fi
sweep="$1"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

GRID="--protocols rr1,fcfs1,aap1 --agents 8 --loads 0.5,2,7.5 \
      --batches 3 --batch-size 400 --fairness --health \
      --snapshot-every 100"

# Reference: the ordinary single-process sweep.
# shellcheck disable=SC2086
"$sweep" $GRID --jobs 4 --csv "$tmp/ref.csv" \
         --trace-out "$tmp/ref.trace" --metrics-out "$tmp/ref.json" \
         --snapshot-out "$tmp/ref.jsonl" > /dev/null

# 1. Sharded run: 4 worker processes over the same grid.
# shellcheck disable=SC2086
"$sweep" $GRID --shards 4 --shard-dir "$tmp/shards" \
         --csv "$tmp/shard.csv" --trace-out "$tmp/shard.trace" \
         --metrics-out "$tmp/shard.json" \
         --snapshot-out "$tmp/shard.jsonl" > /dev/null

for artifact in csv trace json jsonl; do
    if ! cmp -s "$tmp/ref.$artifact" "$tmp/shard.$artifact"; then
        echo "FAIL: sharded $artifact differs from single-process" >&2
        cmp "$tmp/ref.$artifact" "$tmp/shard.$artifact" >&2 || true
        exit 1
    fi
done

# 2. The shard directory now holds complete checkpoints: a second run
# without --resume must refuse with exit 2 and suggest the flag.
set +e
# shellcheck disable=SC2086
"$sweep" $GRID --shards 4 --shard-dir "$tmp/shards" \
         --csv "$tmp/refuse.csv" --trace-out "$tmp/refuse.trace" \
         --snapshot-out "$tmp/refuse.jsonl" > "$tmp/refuse.out" 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "FAIL: rerun without --resume exited $code, expected 2" >&2
    cat "$tmp/refuse.out" >&2
    exit 1
fi
if ! grep -q -- "--resume" "$tmp/refuse.out"; then
    echo "FAIL: refusal message does not mention --resume" >&2
    cat "$tmp/refuse.out" >&2
    exit 1
fi

# Resuming over *complete* checkpoints is a cheap no-op that still
# reproduces the reference bytes.
# shellcheck disable=SC2086
"$sweep" $GRID --shards 4 --shard-dir "$tmp/shards" --resume \
         --csv "$tmp/noop.csv" --trace-out "$tmp/noop.trace" \
         --snapshot-out "$tmp/noop.jsonl" > /dev/null
if ! cmp -s "$tmp/ref.csv" "$tmp/noop.csv"; then
    echo "FAIL: --resume over complete checkpoints changed the CSV" >&2
    exit 1
fi

# 3. SIGKILL drill: a longer grid, killed mid-flight, then resumed.
# The retry budget is zeroed so the killed coordinator (not a retry
# loop) is what the resume has to recover from.
KGRID="--protocols rr1,fcfs1 --agents 8 --loads 0.5,2,7.5 \
       --batches 3 --batch-size 20000 --fairness --health \
       --snapshot-every 100"
# shellcheck disable=SC2086
"$sweep" $KGRID --jobs 4 --csv "$tmp/kref.csv" \
         --trace-out "$tmp/kref.trace" \
         --snapshot-out "$tmp/kref.jsonl" > /dev/null

# shellcheck disable=SC2086
"$sweep" $KGRID --shards 3 --shard-dir "$tmp/kshards" --retries 0 \
         --csv "$tmp/kill.csv" --trace-out "$tmp/kill.trace" \
         --snapshot-out "$tmp/kill.jsonl" > /dev/null 2>&1 &
cpid=$!
# Mid-run on any plausible host: the grid above takes ~1s with three
# workers. If the host is so fast the sweep already finished, the
# drill degrades gracefully to a no-op resume (still byte-checked).
sleep 0.5
if kill -0 "$cpid" 2> /dev/null; then
    # Workers first (children of the coordinator), then the
    # coordinator itself: nothing gets a chance to clean up.
    pkill -9 -P "$cpid" 2> /dev/null || true
    kill -9 "$cpid" 2> /dev/null || true
fi
wait "$cpid" 2> /dev/null || true

# shellcheck disable=SC2086
"$sweep" $KGRID --shards 3 --shard-dir "$tmp/kshards" --resume \
         --csv "$tmp/kill.csv" --trace-out "$tmp/kill.trace" \
         --snapshot-out "$tmp/kill.jsonl" > /dev/null
for artifact in csv trace jsonl; do
    if ! cmp -s "$tmp/kref.$artifact" "$tmp/kill.$artifact"; then
        echo "FAIL: post-SIGKILL --resume $artifact differs from" \
             "single-process reference" >&2
        exit 1
    fi
done

# 4a. A corrupt checkpoint must be rejected with exit 2: flip one hex
# digit inside the first cell record of shard 0.
manifest="$tmp/kshards/shard-0000.manifest.jsonl"
if [ ! -s "$manifest" ]; then
    echo "FAIL: expected manifest $manifest is missing" >&2
    exit 1
fi
sed '2s/"data":"\([0-9a-f]\{7\}\)[0-9a-f]/"data":"\1x/' \
    "$manifest" > "$manifest.bad" && mv "$manifest.bad" "$manifest"
set +e
# shellcheck disable=SC2086
"$sweep" $KGRID --shards 3 --shard-dir "$tmp/kshards" --resume \
         --csv "$tmp/corrupt.csv" --trace-out "$tmp/corrupt.trace" \
         --snapshot-out "$tmp/corrupt.jsonl" > "$tmp/corrupt.out" 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "FAIL: corrupt manifest exited $code, expected 2" >&2
    cat "$tmp/corrupt.out" >&2
    exit 1
fi

# 4b. A manifest from a future format version must also be exit 2.
rm -rf "$tmp/vshards"
mkdir -p "$tmp/vshards"
# shellcheck disable=SC2086
"$sweep" $GRID --shards 2 --shard-dir "$tmp/vshards" \
         --csv "$tmp/v.csv" --snapshot-out "$tmp/v.jsonl" > /dev/null
sed '1s/"version":1/"version":99/' \
    "$tmp/vshards/shard-0000.manifest.jsonl" > "$tmp/v.bad" &&
    mv "$tmp/v.bad" "$tmp/vshards/shard-0000.manifest.jsonl"
set +e
# shellcheck disable=SC2086
"$sweep" $GRID --shards 2 --shard-dir "$tmp/vshards" --resume \
         --csv "$tmp/v2.csv" --snapshot-out "$tmp/v2.jsonl" \
         > "$tmp/version.out" 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "FAIL: version-mismatch manifest exited $code, expected 2" >&2
    cat "$tmp/version.out" >&2
    exit 1
fi

# 5. Paper tables: the coordinator prints the same [table] sections
# from merged checkpoints as an in-process run does. Table 4.3 reads
# each cell's waiting-time histogram, which travels in the records.
for paper in table_4_1_4_2_n10:4.2 table_4_3_n10:4.3; do
    {
        cat "$(dirname "$0")/../bench/tables/${paper%:*}.grid"
        printf '\n[run]\nbatch-size = 200\n'
    } > "$tmp/paper.grid"
    "$sweep" --grid "$tmp/paper.grid" | grep -v elapsed_ms= \
        > "$tmp/paper.ref"
    rm -rf "$tmp/pshards"
    "$sweep" --grid "$tmp/paper.grid" --shards 2 \
        --shard-dir "$tmp/pshards" | grep -v elapsed_ms= > "$tmp/paper.shard"
    if ! grep -q "=== Table ${paper#*:}(a)" "$tmp/paper.ref" ||
            ! cmp -s "$tmp/paper.ref" "$tmp/paper.shard"; then
        echo "FAIL: sharded ${paper%:*} tables differ from in-process" >&2
        diff "$tmp/paper.ref" "$tmp/paper.shard" >&2 || true
        exit 1
    fi
done

# 6. Checkpoints written with --shards 3 cover other cell ranges than
# --shards 5 plans: the resume is refused up front, so no shard 3 or 4
# task file or manifest appears.
# shellcheck disable=SC2086
"$sweep" $GRID --shards 3 --shard-dir "$tmp/rshards" \
         --csv "$tmp/r.csv" --snapshot-out "$tmp/r.jsonl" > /dev/null
set +e
# shellcheck disable=SC2086
"$sweep" $GRID --shards 5 --shard-dir "$tmp/rshards" --resume \
         --csv "$tmp/r5.csv" --snapshot-out "$tmp/r5.jsonl" \
         > "$tmp/reshard.out" 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "FAIL: --resume with another --shards exited $code, expected 2" >&2
    cat "$tmp/reshard.out" >&2
    exit 1
fi
if ! grep -q -- "--shards 5" "$tmp/reshard.out"; then
    echo "FAIL: --shards refusal does not name --shards" >&2
    cat "$tmp/reshard.out" >&2
    exit 1
fi
for f in shard-0003.manifest.jsonl shard-0004.manifest.jsonl \
         shard-0003.shard shard-0004.shard; do
    if [ -e "$tmp/rshards/$f" ]; then
        echo "FAIL: refused --shards resume still wrote $f" >&2
        exit 1
    fi
done

echo "ok: sharded sweep byte-identical to single-process," \
     "checkpoints survive SIGKILL + --resume, corrupt or" \
     "version-mismatched manifests are refused with exit 2," \
     "sharded paper tables match in-process ones, and a resume" \
     "under another --shards is refused before any worker runs"
