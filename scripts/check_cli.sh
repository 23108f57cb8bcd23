#!/bin/sh
# Tier-1 CLI contract check for all four tools:
#
#   exit 0  --help and --list-protocols (informational output)
#   exit 2  usage errors: unknown flags, malformed protocol specs,
#           malformed scenario files, flag/scenario conflicts, and
#           observer, scenario or integer values outside their range —
#           always naming the offending token, with a did-you-mean
#           hint where one is close
#   exit 1  an unwritable sweep results file, before any cell runs
#
# Usage: check_cli.sh sim sweep trace report
set -eu

if [ $# -ne 4 ]; then
    echo "usage: $0 sim sweep trace report" >&2
    exit 2
fi
sim="$1"
sweep="$2"
trace="$3"
report="$4"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

fails=0

# expect <code> <needle> <label> -- cmd...: run cmd, require the exit
# status and (when needle is non-empty) the named token in the output.
expect() {
    want="$1"; needle="$2"; label="$3"
    shift 3
    set +e
    "$@" > "$tmp/out" 2>&1
    got=$?
    set -e
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $label exited $got, expected $want" >&2
        cat "$tmp/out" >&2
        fails=$((fails + 1))
        return 0
    fi
    if [ -n "$needle" ] && ! grep -q -e "$needle" "$tmp/out"; then
        echo "FAIL: $label output lacks '$needle'" >&2
        cat "$tmp/out" >&2
        fails=$((fails + 1))
    fi
}

# Informational flags exit 0 on every tool.
expect 0 "--help" "sim --help" "$sim" --help
expect 0 "--help" "sweep --help" "$sweep" --help
expect 0 "--help" "trace --help" "$trace" --help
expect 0 "--help" "report --help" "$report" --help
expect 0 "wrr" "sim --list-protocols" "$sim" --list-protocols
expect 0 "rr1" "sim --list-protocols" "$sim" --list-protocols
expect 0 "wrr" "sweep --list-protocols" "$sweep" --list-protocols
expect 0 "onoff" "sim --list-workloads" "$sim" --list-workloads
expect 0 "trace" "sim --list-workloads" "$sim" --list-workloads
expect 0 "mmpp" "sweep --list-workloads" "$sweep" --list-workloads

# Unknown flags exit 2 and name the flag, on every tool.
expect 2 "no-such-flag" "sim unknown flag" "$sim" --no-such-flag
expect 2 "no-such-flag" "sweep unknown flag" "$sweep" --no-such-flag
expect 2 "no-such-flag" "trace unknown flag" "$trace" --no-such-flag
expect 2 "no-such-flag" "report unknown flag" "$report" --no-such-flag

# Malformed protocol specs exit 2 naming the offending token.
expect 2 "nope" "sim unknown protocol" "$sim" --protocol nope
expect 2 "did you mean 'rr1'" "sim protocol hint" "$sim" --protocol rr9
expect 2 "bogus" "sim unknown option" "$sim" --protocol rr1:bogus=1
expect 2 "out of range" "sim option range" \
    "$sim" --protocol fcfs1:bits=99
expect 2 "nope" "sweep unknown protocol" \
    "$sweep" --protocols rr1,nope --loads 0.5
expect 2 "did you mean 'fcfs1'" "report protocol hint" \
    "$report" --protocol fcsf1 --out "$tmp/report.md"

# busarb_trace without a mode or input is a usage error.
expect 2 "" "trace without arguments" "$trace"

# Malformed workload-source specs exit 2 naming the token, with
# did-you-mean hints, on every tool that takes --source.
expect 2 "did you mean 'open'" "sim workload hint" \
    "$sim" --protocol rr1 --source opne
expect 2 "did you mean 'rate'" "sim workload option hint" \
    "$sim" --protocol rr1 --source open:rte=2
expect 2 "did you mean 'closed'" "sweep workload hint" \
    "$sweep" --protocols rr1 --source clsed
expect 2 "did you mean 'onoff'" "report workload hint" \
    "$report" --protocol rr1 --source onof --out "$tmp/report.md"

# Loadless sources conflict with a load axis; doomed trace runs are
# caught before any cell runs.
expect 2 "requires file=" "sim trace without file" \
    "$sim" --protocol rr1 --source trace
expect 2 "conflicts with --source" "sim trace with --load" \
    "$sim" --protocol rr1 --source "trace:file=$tmp/x.trace" --load 2
expect 2 "conflicts with --source" "sweep trace with --loads" \
    "$sweep" --protocols rr1 --source "trace:file=$tmp/x.trace" \
    --loads 0.5
expect 2 "cannot read" "sim missing trace file" \
    "$sim" --protocol rr1 --agents 4 --batches 1 --batch-size 100 \
    --warmup 0 --source "trace:file=$tmp/does-not-exist.trace"
printf '0.5 1\n1.0 2\n' > "$tmp/short.trace"
expect 2 "shorten the run" "sim short trace" \
    "$sim" --protocol rr1 --agents 4 --batches 1 --batch-size 100 \
    --warmup 0 --source "trace:file=$tmp/short.trace"

# Scenario files: parse errors are line-numbered usage errors, and
# workload flags conflict with --scenario.
cat > "$tmp/bad.scenario" <<'EOF'
[workload]
agents = none
EOF
expect 2 "line 2" "sim bad scenario file" \
    "$sim" --scenario "$tmp/bad.scenario"
cat > "$tmp/ok.scenario" <<'EOF'
[workload]
agents = 4
load = 1
[run]
batches = 2
batch-size = 100
EOF
expect 2 "conflicts with --scenario" "sim scenario/flag conflict" \
    "$sim" --scenario "$tmp/ok.scenario" --agents 8
expect 2 "conflicts with --scenario" "sim scenario/source conflict" \
    "$sim" --scenario "$tmp/ok.scenario" --source open:rate=2
expect 2 "conflicts with --scenario" "sim scenario/hot conflict" \
    "$sim" --scenario "$tmp/ok.scenario" --hot-agents 2 --hot-factor 3
expect 2 "conflicts with --grid" "sweep grid/source conflict" \
    "$sweep" --grid "$tmp/ok.scenario" --source open:rate=2
expect 2 "conflicts with --scenario" "report scenario/flag conflict" \
    "$report" --scenario "$tmp/ok.scenario" --cv 2 \
    --out "$tmp/report.md"
expect 1 "cannot read" "sim missing scenario file" \
    "$sim" --scenario "$tmp/does-not-exist.scenario"

# Artifact paths into a missing parent directory are usage errors,
# caught up front (before any simulation) and naming both the
# directory and the flag, on every tool that writes artifacts.
missing="$tmp/no/such/dir"
expect 2 "$tmp/no/such" "sim metrics parent dir" \
    "$sim" --protocol rr1 --agents 4 --batches 1 --batch-size 100 \
    --warmup 0 --metrics-out "$missing/m.json"
expect 2 "trace-out" "sim trace parent dir" \
    "$sim" --protocol rr1 --agents 4 --batches 1 --batch-size 100 \
    --warmup 0 --trace-out "$missing/run.trace"
expect 2 "does not exist" "sweep csv parent dir" \
    "$sweep" --protocols rr1 --loads 0.5 --agents 4 --batches 1 \
    --batch-size 100 --csv "$missing/sweep.csv"
expect 2 "snapshot-out" "sweep snapshot parent dir" \
    "$sweep" --protocols rr1 --loads 0.5 --agents 4 --batches 1 \
    --batch-size 100 --health --snapshot-out "$missing/s.jsonl"
expect 2 "does not exist" "report out parent dir" \
    "$report" --protocol rr1 --agents 4 --batches 1 \
    --batch-size 100 --out "$missing/report.md"
expect 2 "perfetto" "trace perfetto parent dir" \
    "$trace" "$tmp/whatever.trace" --perfetto "$missing/t.json"

# A results file that cannot be opened (here a directory) fails with
# exit 1 before any cell runs or any shard worker spawns.
expect 1 "cannot write" "sweep csv unwritable" \
    "$sweep" --protocols rr1 --loads 0.5 --agents 4 --batches 1 \
    --batch-size 100 --shards 2 --shard-dir "$tmp/csv-shards" --csv "$tmp"
if grep -q "jobs=" "$tmp/out" || [ -e "$tmp/csv-shards" ]; then
    echo "FAIL: sweep ran before finding --csv unwritable" >&2
    fails=$((fails + 1))
fi

# Observer values outside their range exit 2 naming the flag, on every
# tool that takes them; a sharded sweep refuses before any worker runs.
expect 2 "health-lag1" "sim observer range" \
    "$sim" --protocol rr1 --health --health-lag1 0
expect 2 "fairness-window" "sweep observer range" \
    "$sweep" --protocols rr1 --loads 0.5 --fairness-window 1e-300
expect 2 "health-rel-hw" "sharded sweep observer range" \
    "$sweep" --protocols rr1 --loads 0.5 --health --health-rel-hw 0 \
    --shards 2 --shard-dir "$tmp/observer-shards"
if [ -e "$tmp/observer-shards" ]; then
    echo "FAIL: sharded sweep wrote shards before rejecting a value" >&2
    fails=$((fails + 1))
fi
expect 2 "snapshot-every" "report observer range" \
    "$report" --protocol rr1 --snapshot-every -1 --out "$tmp/report.md"
expect 2 "bypass-bound" "trace audit observer range" \
    "$trace" audit "$tmp/whatever.trace" --bypass-bound -3

# Scenario values the workload builders cannot realize exit 2 naming
# the key before any cell runs, on the flag and the file path alike; a
# sharded sweep refuses before it creates a shard dir.
expect 2 "load 7.5 over 5 agents" "sim per-agent load range" \
    "$sim" --protocol aap1 --agents 5 --load 7.5
expect 2 "unequal-factor 3" "sim unequal-factor range" \
    "$sim" --protocol rr1 --unequal-factor 3 --agents 5 --load 2.5
expect 2 "agents >= 5" "sim worst-case agents" \
    "$sim" --protocol rr1 --worst-case --agents 3
expect 2 "warmup" "sim negative warmup" \
    "$sim" --protocol rr1 --warmup -1
expect 2 "load 7.5 over 5 agents" "sweep per-agent load range" \
    "$sweep" --protocols rr1 --agents 5 --loads 7.5
# A scenario flag gets its file key's own check and names itself,
# never a line of a file the user did not write.
expect_flag() {
    label="$1"; flag="$2"; shift 2
    expect 2 "--$flag" "$label" "$@"
    if grep -q "line " "$tmp/out"; then
        echo "FAIL: $label names a file line" >&2
        cat "$tmp/out" >&2
        fails=$((fails + 1))
    fi
}
for tool in sim report sweep; do
    case "$tool" in
      sim) cmd="$sim" ;;
      report) cmd="$report --out $tmp/report.md" ;;
      sweep) cmd="$sweep --protocols rr1" ;;
    esac
    for bad in "agents 0" "batches 0" "max-outstanding 0" "cv -1"; do
        flag="${bad% *}"
        [ "$tool:$flag" != sweep:max-outstanding ] || continue
        # shellcheck disable=SC2086
        expect_flag "$tool --$bad" "$flag" $cmd --$bad
    done
done
expect_flag "sim negative unequal-factor" "unequal-factor" \
    "$sim" --unequal-factor -1
expect_flag "sim negative hot-factor" "hot-factor" "$sim" --hot-factor -1
expect 2 "hot-factor requires hot-agents" "sim hot-factor alone" \
    "$sim" --hot-factor 3
expect 2 "family 'worst-case' takes no loads" "sim worst-case with --load" \
    "$sim" --worst-case --load 3
expect_flag "sweep empty --protocols" "protocols" "$sweep" --protocols ''
expect_flag "sweep empty --loads" "loads" "$sweep" --loads ''
expect 2 "busarb_sweep: --protocols" "sweep empty --protocols prefix" \
    "$sweep" --protocols ''
# unequal-factor outside family unequal used to vanish from the run.
expect 2 "unequal-factor requires family 'unequal'" \
    "sim worst-case with --unequal-factor" \
    "$sim" --worst-case --unequal-factor 2
printf '[workload]\nfamily = equal\nunequal-factor = 2\nload = 1\n' \
    > "$tmp/unequal.scenario"
expect 2 "unequal-factor requires family 'unequal'" \
    "sim scenario unequal-factor without family" \
    "$sim" --scenario "$tmp/unequal.scenario"
cat > "$tmp/overload.grid" <<'EOF'
[workload]
agents = 5
[run]
batches = 2
batch-size = 100
[sweep]
loads = 1 7.5
protocols = rr1
EOF
expect 2 "load 7.5 over 5 agents" "sweep grid load range" \
    "$sweep" --grid "$tmp/overload.grid"
expect 2 "load 7.5 over 5 agents" "sharded sweep grid load range" \
    "$sweep" --grid "$tmp/overload.grid" --shards 2 \
    --shard-dir "$tmp/load-shards"
if [ -e "$tmp/load-shards" ]; then
    echo "FAIL: sharded sweep wrote shards before rejecting a load" >&2
    fails=$((fails + 1))
fi
# A confidence level with no Student-t table refuses at parse time; it
# used to run every cell and then exit 1 at the first interval.
cat > "$tmp/confidence.grid" <<'EOF'
[run]
confidence = 0.8
batches = 3
batch-size = 5000000
[sweep]
loads = 2
protocols = rr1
EOF
expect 2 "'confidence'" "sweep grid unsupported confidence" \
    "$sweep" --grid "$tmp/confidence.grid"
expect 2 "'confidence'" "sim scenario unsupported confidence" \
    "$sim" --scenario "$tmp/confidence.grid"
# Grid tables and row axes are checked at parse time: a bad [table]
# exits 2 naming its line and key before any cell runs (the batch size
# would take minutes).
table_case() {
    label="$1"; needle="$2"; shift 2
    {
        printf '[run]\nbatch-size = 5000000\n'
        printf '%s\n' "$@"
    } > "$tmp/table.grid"
    expect 2 "$needle" "sweep grid $label" "$sweep" --grid "$tmp/table.grid"
}
SWEEP="[sweep]
loads = 1 2
protocols = rr1 fcfs1
[table]
title = T"
table_case "unknown table estimate" "did you mean 'wait_mean'" \
    "$SWEEP" "column = W = wait_men @ rr1"
table_case "ratio agent out of range" "ratio(11,1) needs agents in 1..10" \
    "$SWEEP" "column = r = ratio(11,1) @ rr1"
table_case "table protocol not swept" "'rr2' is not in \\[sweep\\] protocols" \
    "$SWEEP" "column = W = wait_mean @ rr2"
table_case "table load not on the axis" "'3' is not on the loads axis" \
    "$SWEEP" "rows = protocols" "column = W = wait_mean @ 3"
table_case "table without columns" "line 6: \\[table\\] needs" "$SWEEP"
table_case "two row axes" "a grid has one row axis" \
    "[sweep]" "loads = 1 2" "cv = 0 1" "protocols = rr1"
table_case "negative cv axis" "key 'cv' must be finite and >= 0" \
    "[workload]" "load = 1" "[sweep]" "cv = -0.5 1" "protocols = rr1"
table_case "worst-case with loads" "family 'worst-case' takes no loads" \
    "[workload]" "family = worst-case" "[sweep]" "loads = 1" \
    "protocols = rr1"
# The distribution quantities and the batch-size axis resolve at parse
# time too, each error naming its line.
table_case "overlap of an unswept protocol" \
    "line 8: key 'column': overlap(rr1,rr2): 'rr2' is not in" \
    "$SWEEP" "column = V = overlap(rr1,rr2) @ rr1"
table_case "overlap of one protocol" \
    "line 8: key 'column': overlap(rr1,rr1) needs two different" \
    "$SWEEP" "column = V = overlap(rr1,rr1) @ rr1"
table_case "negative cdf point" \
    "line 8: key 'column': cdf(-1) needs a finite t >= 0" \
    "$SWEEP" "column = F = cdf(-1) @ rr1"
table_case "nan cdf point" "line 8: key 'column': cdf(nan) needs a finite" \
    "$SWEEP" "column = F = cdf(nan) @ rr1"
table_case "zero batch-size axis" \
    "line 6: key 'batch-size' must be >= 1, got '0'" \
    "[workload]" "load = 2" "[sweep]" "batch-size = 0" "protocols = rr1"
# table_case's [run] sets batch-size: the swept key is refused at the
# [sweep] line.
table_case "batch-size in [run] and [sweep]" \
    "line 6: key 'batch-size' is swept in \\[sweep\\]; drop it from" \
    "[workload]" "load = 2" "[sweep]" "batch-size = 250 1000" \
    "protocols = rr1"
# An axis value listed twice would run its cells twice under one label:
# a file names its line and key, a flag the flag.
table_case "repeated load" "line 4: key 'loads' must not repeat a value" \
    "[sweep]" "loads = 1 2 1" "protocols = rr1"
table_case "repeated cv" "line 6: key 'cv' must not repeat a value" \
    "[workload]" "load = 1" "[sweep]" "cv = 0 0.5 0" "protocols = rr1"
table_case "repeated protocol" \
    "line 5: key 'protocols' must not repeat a value, got 'rr1'" \
    "[sweep]" "loads = 1" "protocols = rr1 rr1"
expect 2 "busarb_sweep: --loads must not repeat a value, got 1" \
    "sweep repeated --loads" "$sweep" --protocols rr1 --loads 1,2,1
expect 2 "busarb_sweep: --protocols must not repeat a value, got rr1" \
    "sweep repeated --protocols" "$sweep" --protocols rr1,rr1 --loads 1
# A single run refuses a row axis of several values, whichever key.
printf '[workload]\nload = 1\n[sweep]\ncv = 0 1\n' > "$tmp/cv.grid"
expect 2 "sweeps 2 cv values" "sim cv axis" "$sim" --scenario "$tmp/cv.grid"
printf '[workload]\nload = 1\n[sweep]\narb-overhead = 0 1\n' \
    > "$tmp/overhead.grid"
expect 2 "sweeps 2 arb-overhead values" "report arb-overhead axis" \
    "$report" --scenario "$tmp/overhead.grid" --out "$tmp/report.md"
# A scenario without a load runs no cell; it used to abort.
printf '[workload]\nagents = 4\n' > "$tmp/noload.scenario"
expect 2 "sweeps 0 load values" "sim scenario without a load" \
    "$sim" --scenario "$tmp/noload.scenario"
expect 2 "sweeps 0 load values" "report scenario without a load" \
    "$report" --scenario "$tmp/noload.scenario" --out "$tmp/report.md"
expect 2 "load 7.5 over 5 agents" "report per-agent load range" \
    "$report" --protocol rr1 --agents 5 --load 7.5 --out "$tmp/report.md"
expect 2 "warmup" "report negative warmup" \
    "$report" --protocol rr1 --warmup -1 --out "$tmp/report.md"

# Integers a field cannot hold exit 2 naming the flag or key before any
# cell runs, instead of wrapping (agents 4294967306 ran 10 agents) or
# clamping; seeds are decimal or 0x hex, never octal.
expect 2 "agents must be <= 2147483647" "sim agents overflow" \
    "$sim" --agents 4294967306 --load 2 --batches 1 --batch-size 100 \
    --warmup 10
expect 2 "batches must be <= 2147483647" "sim batches overflow" \
    "$sim" --batches 4294967297 --batch-size 100 --warmup 10
expect 2 "seed" "sim seed past the long range" \
    "$sim" --seed 99999999999999999999 --batches 1 --batch-size 100
expect 2 "seed must be >= 0" "sim negative seed" \
    "$sim" --seed -5 --batches 1 --batch-size 100
expect 2 "jobs must be >= 0" "sim negative jobs" \
    "$sim" --jobs -1 --batches 1 --batch-size 100
expect 2 "agents must be <= 2147483647" "sweep agents overflow" \
    "$sweep" --protocols rr1 --loads 2 --agents 4294967306
expect 2 "jobs must be <= 2147483647" "sweep jobs overflow" \
    "$sweep" --protocols rr1 --loads 2 --jobs 4294967297
expect 2 "retries must be <= 2147483647" "sweep retries overflow" \
    "$sweep" --protocols rr1 --loads 2 --retries 4294967296 --shards 2 \
    --shard-dir "$tmp/retries-shards"
if [ -e "$tmp/retries-shards" ]; then
    echo "FAIL: sharded sweep wrote shards before rejecting --retries" >&2
    fails=$((fails + 1))
fi
cat > "$tmp/agents.grid" <<'EOF'
[workload]
agents = 4294967306
[sweep]
loads = 2
protocols = rr1
EOF
expect 2 "'agents' must be <= 2147483647" "sweep grid agents overflow" \
    "$sweep" --grid "$tmp/agents.grid"
cat > "$tmp/octal.grid" <<'EOF'
[run]
seed = 0100
[sweep]
loads = 2
protocols = rr1
EOF
expect 2 "'seed'" "sweep grid octal seed" "$sweep" --grid "$tmp/octal.grid"
expect 2 "agents must be <= 2147483647" "report agents overflow" \
    "$report" --protocol rr1 --agents 4294967306 --out "$tmp/report.md"
expect 2 "seed must be >= 0" "report negative seed" \
    "$report" --protocol rr1 --seed -5 --out "$tmp/report.md"

if [ "$fails" -ne 0 ]; then
    echo "FAIL: $fails CLI contract check(s) failed" >&2
    exit 1
fi
echo "ok: help/list exit 0; unknown flags, bad specs, bad scenario" \
     "files, flag conflicts and bad observer, scenario or integer" \
     "values exit 2 naming the token"
