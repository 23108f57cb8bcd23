#!/usr/bin/env bash
# Smoke check of the end-to-end benchmark (see README.md): every workload
# once at minimum length, one traced pass, and a corrupted golden that
# must make the run report failed cells and exit 1.
#
#   bash bench/e2e/smoke.sh
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build=$root/$build
seed=1592642302

# check LIST: the result line on stdin is correct and carries exactly the
# BENCHMARK.json metrics of LIST (end_to_end or per_layer), with units.
check() {
    python3 -c '
import json, sys
expected = {m["name"]: m["unit"]
            for m in json.load(open(sys.argv[1]))[sys.argv[2]]}
result = json.loads(sys.stdin.read().strip().splitlines()[-1])
assert result["correct"] and result["failed"] == 0, result
got = {k: v["unit"] for k, v in result["metrics"].items()}
assert got == expected, (sorted(set(got) ^ set(expected)), got)
' "$root/BENCHMARK.json" "$1"
}

for w in paper-t41 wide64-settle open-mmpp-observed fleet-sharded; do
    bash "$here/run.sh" --workload "$w" --seed $seed --seconds 0 \
        --trace 0 | check end_to_end
    echo "smoke: $w ok"
done
bash "$here/run.sh" --workload fleet-sharded --seed $seed --seconds 0 \
    --trace 1 | check per_layer
echo "smoke: traced pass ok"

golden=$build/smoke-golden
rm -rf "$golden"
cp -r "$here/golden" "$golden"
sed -i "s/^$seed out.csv .*/$seed out.csv 0000000000000000/" \
    "$golden/paper-t41.txt"
status=0
out=$(bash "$here/run.sh" --workload paper-t41 --seed $seed --seconds 0 \
          --golden "$golden") || status=$?
rm -rf "$golden"
failed=$(python3 -c 'import json, sys
print(json.loads(sys.stdin.read().strip().splitlines()[-1])["failed"])' \
         <<<"$out")
if [[ $status != 1 || $failed == 0 ]]; then
    echo "smoke: a corrupted golden gave exit $status, failed=$failed" >&2
    exit 1
fi
echo "smoke: corrupted golden detected (failed=$failed)"
