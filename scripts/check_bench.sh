#!/bin/sh
# Kernel-benchmark regression smoke for the event-queue rebuild:
#
#   1. Runs the micro_kernel google-benchmark binary in smoke mode
#      (short min_time, 3 repetitions, medians) over the
#      BM_FullSimulation* and BM_EventQueue* families.
#   2. Emits a machine-readable summary (BENCH_6.json by default; set
#      BUSARB_BENCH_OUT to relocate) with the measured rates and the
#      verdict of each pin below.
#   3. Fails if any pin regresses:
#        - the calendar queue must beat the in-binary heap policy on
#          the paper's 20-agent full simulation by at least
#          BUSARB_BENCH_MIN_CAL_VS_HEAP (default 1.10x), priced as the
#          median of back-to-back calendar/heap pairs in thread CPU
#          time (BM_FullSimulationAgents20);
#        - the self-profiler's full-simulation overhead, priced as
#          the median of back-to-back profiled/unprofiled pairs in
#          thread CPU time (BM_FullSimulationProfiled), must stay
#          within BUSARB_BENCH_MAX_OVERHEAD_PCT (default 5; the
#          design target is <2% — see docs/KERNEL.md — but a smoke
#          run on a loaded host needs noise headroom, so CI on quiet
#          machines should tighten this via the environment);
#        - the steady-state pop path must perform zero callback heap
#          allocations (BM_EventQueuePopAllocations's counter).
#
# Smoke numbers are for regression pinning only; the committed
# BENCH_6.json at the repo root records the curated before/after
# measurements with methodology notes.
#
# Usage: check_bench.sh /path/to/micro_kernel
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 /path/to/micro_kernel" >&2
    exit 2
fi
bench="$1"
out="${BUSARB_BENCH_OUT:-BENCH_6.json}"

if ! command -v python3 > /dev/null 2>&1; then
    echo "SKIP: python3 not available to parse benchmark JSON" >&2
    exit 77
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$bench" \
    --benchmark_filter='BM_FullSimulation|BM_EventQueue' \
    --benchmark_min_time="${BUSARB_BENCH_MIN_TIME:-0.05}" \
    --benchmark_repetitions=3 \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json > "$tmp/raw.json"

python3 - "$tmp/raw.json" "$out" << 'EOF'
import json
import os
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

# Index the median aggregates by benchmark name.
medians = {}
for b in raw.get("benchmarks", []):
    if b.get("aggregate_name") == "median":
        medians[b["run_name"]] = b

def rate(name, counter):
    b = medians.get(name)
    if b is None or counter not in b:
        sys.exit(f"FAIL: benchmark {name} missing counter {counter}")
    return float(b[counter])

ratio = rate("BM_FullSimulationAgents20/iterations:30", "calendar_vs_heap")
overhead_pct = max(0.0, rate("BM_FullSimulationProfiled/iterations:30",
                             "overhead_pct"))
pop_allocs = rate("BM_EventQueuePopAllocations", "callback_heap_allocs")

min_ratio = float(os.environ.get("BUSARB_BENCH_MIN_CAL_VS_HEAP", "1.10"))
max_overhead = float(os.environ.get("BUSARB_BENCH_MAX_OVERHEAD_PCT", "5"))

checks = [
    {
        "name": "calendar_vs_heap_full_sim",
        "detail": "BM_FullSimulationAgents20 median per-pair "
                  "calendar/heap events/s in CPU time",
        "measured": round(ratio, 3),
        "threshold": min_ratio,
        "ok": ratio >= min_ratio,
    },
    {
        "name": "profiler_overhead_pct",
        "detail": "BM_FullSimulationProfiled median per-pair "
                  "(profiled-unprofiled)/unprofiled CPU time",
        "measured": round(overhead_pct, 2),
        "threshold": max_overhead,
        "ok": overhead_pct <= max_overhead,
    },
    {
        "name": "pop_path_zero_callback_allocs",
        "detail": "BM_EventQueuePopAllocations callback_heap_allocs",
        "measured": pop_allocs,
        "threshold": 0,
        "ok": pop_allocs == 0,
    },
]

summary = {
    "suite": "busarb micro_kernel smoke",
    "filter": "BM_FullSimulation|BM_EventQueue",
    "results": {
        name: {
            k: b[k]
            for k in ("real_time", "items_per_second",
                      "calendar_events_per_second", "heap_events_per_second",
                      "calendar_tx_per_second", "heap_tx_per_second",
                      "calendar_vs_heap", "callback_heap_allocs",
                      "overhead_pct")
            if k in b
        }
        for name, b in sorted(medians.items())
    },
    "checks": checks,
    "pass": all(c["ok"] for c in checks),
}
with open(out_path, "w") as f:
    json.dump(summary, f, indent=2)
    f.write("\n")

for c in checks:
    verdict = "ok" if c["ok"] else "FAIL"
    print(f"{verdict}: {c['name']} measured={c['measured']} "
          f"threshold={c['threshold']}")
if not summary["pass"]:
    sys.exit(1)
EOF

echo "ok: kernel benchmark pins hold; summary written to $out"
