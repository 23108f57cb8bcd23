#!/bin/sh
# Tier-1 integration check for the parallel sweep runner:
#
#   1. A small protocol x load sweep at --jobs 1 and --jobs 8 must
#      produce byte-identical artifacts — the results CSV, the binary
#      event trace (--trace-out), and the metrics export
#      (--metrics-out, including the fairness.* entries from the
#      auditor). Every grid cell is hermetic, so thread interleaving
#      must not be observable in any output. (The per-cell
#      --timing-csv is host wall-clock and deliberately excluded from
#      the comparison.)
#   2. busarb_sim --snapshot-out emits the same JSONL bytes at
#      --jobs 1 and --jobs 8: snapshots (fairness and health alike)
#      are keyed to simulated time, never to scheduling order. The
#      health lines are additionally diffed on their own.
#   3. A malformed --loads token must exit with status 2 and name the
#      offending token (regression for the unchecked std::stod abort).
#   3b. The event-queue storage policy is unobservable: --queue heap
#      (the reference binary heap) must produce byte-identical CSV,
#      trace, metrics, and snapshot JSONL to the default calendar
#      queue. The two implementations share one ordering contract —
#      (tick, priority, insertion sequence) — and any divergence in
#      any artifact means one of them broke it (see docs/KERNEL.md).
#   4. A --grid scenario file describing the same sweep must produce
#      byte-identical CSV and metrics to the flag invocation — and
#      itself be --jobs-independent. Both inputs reduce to one
#      ScenarioSpec and expand through the same cell-assembly path, so
#      any divergence means the seam has forked.
#   5. The same sweep run as a worker fleet (--shards 2) must also be
#      byte-identical to the serial run: process boundaries, like
#      thread interleaving, may never be observable in any artifact.
#      (check_shard.sh drills the orchestration layer itself — crash
#      recovery, refusal paths, corrupt manifests.)
#   8. Settle timing: every signal-level protocol at 70 agents (two
#      64-agent mask words), with pass durations taken from the
#      wired-OR settle model, is byte-identical at --jobs 1, --jobs 8
#      and --shards 2.
#
# Usage: check_determinism.sh /path/to/busarb_sweep /path/to/busarb_sim
set -eu

if [ $# -ne 2 ]; then
    echo "usage: $0 /path/to/busarb_sweep /path/to/busarb_sim" >&2
    exit 2
fi
sweep="$1"
sim="$2"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

run_sweep() {
    "$sweep" --protocols rr1,fcfs1,aap1 --agents 8 --loads 0.5,2,7.5 \
             --batches 3 --batch-size 400 --jobs "$1" --csv "$2" \
             --trace-out "$3" --metrics-out "$4" \
             --timing-csv "$5" --fairness --health > /dev/null
}

run_sweep 1 "$tmp/serial.csv" "$tmp/serial.trace" \
    "$tmp/serial-metrics.csv" "$tmp/serial-timing.csv"
run_sweep 8 "$tmp/parallel.csv" "$tmp/parallel.trace" \
    "$tmp/parallel-metrics.csv" "$tmp/parallel-timing.csv"

if ! cmp -s "$tmp/serial.csv" "$tmp/parallel.csv"; then
    echo "FAIL: --jobs 8 CSV differs from --jobs 1" >&2
    diff -u "$tmp/serial.csv" "$tmp/parallel.csv" >&2 || true
    exit 1
fi

if ! cmp -s "$tmp/serial.trace" "$tmp/parallel.trace"; then
    echo "FAIL: --jobs 8 binary trace differs from --jobs 1" >&2
    exit 1
fi

if ! cmp -s "$tmp/serial-metrics.csv" "$tmp/parallel-metrics.csv"; then
    echo "FAIL: --jobs 8 metrics differ from --jobs 1" >&2
    diff -u "$tmp/serial-metrics.csv" "$tmp/parallel-metrics.csv" \
        >&2 || true
    exit 1
fi

if ! grep -q "fairness\." "$tmp/serial-metrics.csv"; then
    echo "FAIL: --fairness produced no fairness.* metrics" >&2
    exit 1
fi

if ! grep -q "health\." "$tmp/serial-metrics.csv"; then
    echo "FAIL: --health produced no health.* metrics" >&2
    exit 1
fi

for f in serial.trace serial-metrics.csv serial-timing.csv; do
    if [ ! -s "$tmp/$f" ]; then
        echo "FAIL: artifact $f is empty" >&2
        exit 1
    fi
done

# Snapshot determinism: the fairness auditor's and health monitor's
# JSONL streams are keyed to simulated time, so a two-cell --compare
# run must emit identical bytes regardless of how the cells are
# scheduled across worker threads.
run_snap() {
    "$sim" --protocol rr1 --compare aap1 --agents 8 --load 7.6 \
           --batches 2 --batch-size 400 --warmup 400 --jobs "$1" \
           --snapshot-out "$2" --snapshot-every 100 --health \
           > /dev/null
}

run_snap 1 "$tmp/serial.jsonl"
run_snap 8 "$tmp/parallel.jsonl"

if [ ! -s "$tmp/serial.jsonl" ]; then
    echo "FAIL: --snapshot-out produced no snapshots" >&2
    exit 1
fi
if ! cmp -s "$tmp/serial.jsonl" "$tmp/parallel.jsonl"; then
    echo "FAIL: --jobs 8 snapshot JSONL differs from --jobs 1" >&2
    diff -u "$tmp/serial.jsonl" "$tmp/parallel.jsonl" >&2 || true
    exit 1
fi

# The health monitor must contribute per-batch lines of its own, and
# those lines alone must also match across job counts (guards against
# a future format change smuggling host state into one stream while
# the other still happens to compare clean).
grep '"kind": "health"' "$tmp/serial.jsonl" > "$tmp/serial-health.jsonl" \
    || true
grep '"kind": "health"' "$tmp/parallel.jsonl" \
    > "$tmp/parallel-health.jsonl" || true
if [ ! -s "$tmp/serial-health.jsonl" ]; then
    echo "FAIL: --health emitted no health snapshot lines" >&2
    exit 1
fi
if ! cmp -s "$tmp/serial-health.jsonl" "$tmp/parallel-health.jsonl"; then
    echo "FAIL: --jobs 8 health snapshot lines differ from --jobs 1" >&2
    diff -u "$tmp/serial-health.jsonl" "$tmp/parallel-health.jsonl" \
        >&2 || true
    exit 1
fi

# Queue-policy determinism: the reference heap implementation must be
# observationally identical to the calendar queue in every artifact —
# sweep CSV/trace/metrics and per-run snapshot JSONL alike. (--queue
# is deliberately absent from the scenario.spec annotation, so the
# metrics files are comparable byte for byte.)
"$sweep" --protocols rr1,fcfs1,aap1 --agents 8 --loads 0.5,2,7.5 \
         --batches 3 --batch-size 400 --jobs 4 --queue heap \
         --csv "$tmp/heapq.csv" --trace-out "$tmp/heapq.trace" \
         --metrics-out "$tmp/heapq-metrics.csv" \
         --timing-csv "$tmp/heapq-timing.csv" --fairness --health \
         > /dev/null

if ! cmp -s "$tmp/serial.csv" "$tmp/heapq.csv"; then
    echo "FAIL: --queue heap sweep CSV differs from calendar" >&2
    diff -u "$tmp/serial.csv" "$tmp/heapq.csv" >&2 || true
    exit 1
fi
if ! cmp -s "$tmp/serial.trace" "$tmp/heapq.trace"; then
    echo "FAIL: --queue heap binary trace differs from calendar" >&2
    exit 1
fi
if ! cmp -s "$tmp/serial-metrics.csv" "$tmp/heapq-metrics.csv"; then
    echo "FAIL: --queue heap metrics differ from calendar" >&2
    diff -u "$tmp/serial-metrics.csv" "$tmp/heapq-metrics.csv" \
        >&2 || true
    exit 1
fi

"$sim" --protocol rr1 --compare aap1 --agents 8 --load 7.6 \
       --batches 2 --batch-size 400 --warmup 400 --jobs 4 \
       --queue heap --snapshot-out "$tmp/heapq.jsonl" \
       --snapshot-every 100 --health > /dev/null
if ! cmp -s "$tmp/serial.jsonl" "$tmp/heapq.jsonl"; then
    echo "FAIL: --queue heap snapshot JSONL differs from calendar" >&2
    diff -u "$tmp/serial.jsonl" "$tmp/heapq.jsonl" >&2 || true
    exit 1
fi

# A bad --queue token must be rejected with exit 2, naming the token.
set +e
"$sim" --protocol rr1 --agents 4 --batches 1 --batch-size 100 \
       --warmup 0 --queue splay > "$tmp/badqueue.out" 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "FAIL: bad --queue token exited with $code, expected 2" >&2
    cat "$tmp/badqueue.out" >&2
    exit 1
fi
if ! grep -q "splay" "$tmp/badqueue.out"; then
    echo "FAIL: error message does not name the bad queue token" >&2
    cat "$tmp/badqueue.out" >&2
    exit 1
fi

# Grid-file sweeps: the declarative twin of a flag invocation must be
# byte-identical to it, at any job count.
cat > "$tmp/sweep.grid" <<'EOF'
[workload]
family = equal
agents = 8
cv = 1

[run]
batches = 3
batch-size = 400

[sweep]
loads = 0.5 2 7.5
protocols = rr1 fcfs1 aap1
EOF

run_grid() {
    "$sweep" --grid "$tmp/sweep.grid" --jobs "$1" --csv "$2" \
             --metrics-out "$3" --fairness --health > /dev/null
}

run_grid 1 "$tmp/grid1.csv" "$tmp/grid1-metrics.csv"
run_grid 8 "$tmp/grid8.csv" "$tmp/grid8-metrics.csv"

if ! cmp -s "$tmp/grid1.csv" "$tmp/grid8.csv"; then
    echo "FAIL: --grid at --jobs 8 CSV differs from --jobs 1" >&2
    diff -u "$tmp/grid1.csv" "$tmp/grid8.csv" >&2 || true
    exit 1
fi
if ! cmp -s "$tmp/grid1-metrics.csv" "$tmp/grid8-metrics.csv"; then
    echo "FAIL: --grid at --jobs 8 metrics differ from --jobs 1" >&2
    diff -u "$tmp/grid1-metrics.csv" "$tmp/grid8-metrics.csv" \
        >&2 || true
    exit 1
fi

if ! cmp -s "$tmp/serial.csv" "$tmp/grid1.csv"; then
    echo "FAIL: --grid CSV differs from the equivalent flag sweep" >&2
    diff -u "$tmp/serial.csv" "$tmp/grid1.csv" >&2 || true
    exit 1
fi
# Both inputs reduce to the same canonical ScenarioSpec, so even the
# scenario.spec provenance annotation must match byte for byte.
if ! cmp -s "$tmp/serial-metrics.csv" "$tmp/grid1-metrics.csv"; then
    echo "FAIL: --grid metrics differ from the equivalent flag sweep" \
        >&2
    diff -u "$tmp/serial-metrics.csv" "$tmp/grid1-metrics.csv" \
        >&2 || true
    exit 1
fi
if ! grep -q "scenario.spec" "$tmp/grid1-metrics.csv"; then
    echo "FAIL: metrics export lacks the scenario.spec annotation" >&2
    exit 1
fi

# Sharded sweeps: the multi-process fleet must reproduce the serial
# artifacts byte for byte, trace and metrics included.
"$sweep" --protocols rr1,fcfs1,aap1 --agents 8 --loads 0.5,2,7.5 \
         --batches 3 --batch-size 400 --shards 2 \
         --shard-dir "$tmp/shards" --csv "$tmp/sharded.csv" \
         --trace-out "$tmp/sharded.trace" \
         --metrics-out "$tmp/sharded-metrics.csv" \
         --fairness --health > /dev/null
if ! cmp -s "$tmp/serial.csv" "$tmp/sharded.csv"; then
    echo "FAIL: --shards 2 CSV differs from the in-process sweep" >&2
    diff -u "$tmp/serial.csv" "$tmp/sharded.csv" >&2 || true
    exit 1
fi
if ! cmp -s "$tmp/serial.trace" "$tmp/sharded.trace"; then
    echo "FAIL: --shards 2 binary trace differs from in-process" >&2
    exit 1
fi
if ! cmp -s "$tmp/serial-metrics.csv" "$tmp/sharded-metrics.csv"; then
    echo "FAIL: --shards 2 metrics differ from the in-process sweep" >&2
    diff -u "$tmp/serial-metrics.csv" "$tmp/sharded-metrics.csv" \
        >&2 || true
    exit 1
fi

set +e
"$sweep" --loads 0.5,bogus --agents 4 --batches 2 --batch-size 200 \
    > "$tmp/bad.out" 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "FAIL: bad --loads token exited with $code, expected 2" >&2
    cat "$tmp/bad.out" >&2
    exit 1
fi
if ! grep -q "bogus" "$tmp/bad.out"; then
    echo "FAIL: error message does not name the bad token" >&2
    cat "$tmp/bad.out" >&2
    exit 1
fi

# 6. Open-loop workload sources flow through the same determinism
#    contract: an MMPP sweep must be byte-identical across --jobs,
#    --queue policies, and --shards in every artifact.
"$sweep" --protocols rr1,fcfs1 --agents 8 \
         --source open:dist=mmpp,burst=4,gap=8 --loads 0.5,0.8 \
         --batches 3 --batch-size 400 --fairness --health --jobs 1 \
         --csv "$tmp/open1.csv" --trace-out "$tmp/open1.trace" \
         --metrics-out "$tmp/open1-metrics.csv" > /dev/null
"$sweep" --protocols rr1,fcfs1 --agents 8 \
         --source open:dist=mmpp,burst=4,gap=8 --loads 0.5,0.8 \
         --batches 3 --batch-size 400 --fairness --health --jobs 8 \
         --queue heap --csv "$tmp/open8.csv" \
         --trace-out "$tmp/open8.trace" \
         --metrics-out "$tmp/open8-metrics.csv" > /dev/null
"$sweep" --protocols rr1,fcfs1 --agents 8 \
         --source open:dist=mmpp,burst=4,gap=8 --loads 0.5,0.8 \
         --batches 3 --batch-size 400 --fairness --health --shards 2 \
         --shard-dir "$tmp/open-shards" --csv "$tmp/opensh.csv" \
         --trace-out "$tmp/opensh.trace" \
         --metrics-out "$tmp/opensh-metrics.csv" > /dev/null

for variant in open8 opensh; do
    for kind in csv trace metrics.csv; do
        case "$kind" in
            csv) a="$tmp/open1.csv" b="$tmp/$variant.csv" ;;
            trace) a="$tmp/open1.trace" b="$tmp/$variant.trace" ;;
            *) a="$tmp/open1-metrics.csv" \
               b="$tmp/$variant-metrics.csv" ;;
        esac
        if ! cmp -s "$a" "$b"; then
            echo "FAIL: open-loop $kind differs ($variant vs serial)" >&2
            exit 1
        fi
    done
done
if ! grep -q "workload.issued" "$tmp/open1-metrics.csv"; then
    echo "FAIL: open-loop sweep emitted no workload.* metrics" >&2
    exit 1
fi
# The source is part of the canonical spec, so it must land in the
# provenance annotation (and hence the shard fingerprint).
if ! grep -q "source = open:dist=mmpp" "$tmp/open1-metrics.csv"; then
    echo "FAIL: scenario.spec annotation lacks the workload source" >&2
    exit 1
fi

# 7. Trace replay: record a binary capture, then replaying it must be
#    byte-identical across --jobs, --queue, and --shards too — and the
#    replayed arrival schedule is protocol-independent by construction,
#    so the sweep's CSV rows label the loadless axis with "-".
"$sweep" --protocols rr1 --agents 8 --loads 1.5 --batches 3 \
         --batch-size 400 --trace-out "$tmp/capture.trace" \
         > /dev/null
replay_spec="trace:file=$tmp/capture.trace,format=binary"
"$sweep" --protocols rr1,fcfs1 --agents 8 --source "$replay_spec" \
         --batches 2 --batch-size 200 --jobs 1 \
         --csv "$tmp/replay1.csv" \
         --metrics-out "$tmp/replay1-metrics.csv" > /dev/null
"$sweep" --protocols rr1,fcfs1 --agents 8 --source "$replay_spec" \
         --batches 2 --batch-size 200 --jobs 8 --queue heap \
         --csv "$tmp/replay8.csv" \
         --metrics-out "$tmp/replay8-metrics.csv" > /dev/null
"$sweep" --protocols rr1,fcfs1 --agents 8 --source "$replay_spec" \
         --batches 2 --batch-size 200 --shards 2 \
         --shard-dir "$tmp/replay-shards" --csv "$tmp/replaysh.csv" \
         --metrics-out "$tmp/replaysh-metrics.csv" > /dev/null
for variant in replay8 replaysh; do
    if ! cmp -s "$tmp/replay1.csv" "$tmp/$variant.csv"; then
        echo "FAIL: trace-replay CSV differs ($variant vs serial)" >&2
        diff -u "$tmp/replay1.csv" "$tmp/$variant.csv" >&2 || true
        exit 1
    fi
    if ! cmp -s "$tmp/replay1-metrics.csv" \
         "$tmp/$variant-metrics.csv"; then
        echo "FAIL: trace-replay metrics differ ($variant vs serial)" >&2
        exit 1
    fi
done
if ! grep -q "load=-" "$tmp/replay1.csv"; then
    echo "FAIL: loadless trace sweep rows not labelled with '-'" >&2
    cat "$tmp/replay1.csv" >&2
    exit 1
fi

# A loadless source combined with an explicit load axis is a usage
# error, not a silently ignored flag.
set +e
"$sweep" --protocols rr1 --agents 8 --source "$replay_spec" \
         --loads 0.5 --batches 2 --batch-size 200 \
         > "$tmp/traceload.out" 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "FAIL: trace source with --loads exited $code, expected 2" >&2
    cat "$tmp/traceload.out" >&2
    exit 1
fi

# 8. Settle timing over all ten signal-level protocols at 70 agents.
cat > "$tmp/settle.grid" <<'EOF'
[workload]
family = equal
agents = 70
cv = 1

[bus]
settle-timing = true

[run]
batches = 3
batch-size = 300
warmup = 300

[sweep]
loads = 2 7.5
protocols = rr1 rr2 rr3 fcfs1 fcfs2 hybrid wrr fixed aap1 aap2
EOF

run_settle() {
    "$sweep" --grid "$tmp/settle.grid" "$@" > /dev/null
}
run_settle --jobs 1 --csv "$tmp/settle1.csv" \
    --trace-out "$tmp/settle1.trace" \
    --metrics-out "$tmp/settle1-metrics.csv"
run_settle --jobs 8 --csv "$tmp/settle8.csv" \
    --trace-out "$tmp/settle8.trace" \
    --metrics-out "$tmp/settle8-metrics.csv"
run_settle --shards 2 --shard-dir "$tmp/settle-shards" \
    --csv "$tmp/settlesh.csv" --trace-out "$tmp/settlesh.trace" \
    --metrics-out "$tmp/settlesh-metrics.csv"
for variant in settle8 settlesh; do
    for kind in .csv .trace -metrics.csv; do
        if ! cmp -s "$tmp/settle1$kind" "$tmp/$variant$kind"; then
            echo "FAIL: settle-timing $variant$kind differs from" \
                 "--jobs 1" >&2
            exit 1
        fi
    done
done
if ! grep -q "settle-timing = true" "$tmp/settle1-metrics.csv"; then
    echo "FAIL: settle-timing sweep did not run with settle timing" >&2
    exit 1
fi

echo "ok: parallel and sharded sweep CSV, trace, metrics, and" \
     "fairness/health snapshots byte-identical to serial and across" \
     "--queue policies (closed, open-loop, trace-replay and" \
     "settle-timing runs); bad tokens rejected with exit 2"
