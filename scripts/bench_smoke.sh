#!/usr/bin/env bash
# Run each benchmark workload briefly on seed 1, untraced and traced, and
# check that every operation passed its checks and that the output digests
# equal the ones recorded for seed 1.  A change that moves any fixed-seed
# output bit fails here, and so does one that renames a function the
# tracer wraps without marking it optional.
#
#   bash scripts/bench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

check() {
    local workload="$1" digests="$2" trace
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace" \
            | python3 -c '
import json
import sys

workload, want, trace = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
lines = sys.stdin.read().splitlines()
info = json.loads(lines[-2])["info"]
result = json.loads(lines[-1])
if result["correct"] is not True:
    sys.exit(f"{workload} (trace {trace}): not correct: {lines[-1]}")
got = info["digests"]
if got != want:
    sys.exit(f"{workload} (trace {trace}): digests {got} differ from {want}")
print(f"{workload} (trace {trace}): correct, digests match")
' "$workload" "$digests" "$trace"
    done
}

check mc-diffusive '{"mc_costs": "df39d5e77df09d8034e280354b2020116c68a42d1f6be4017a813b5e18372f7e"}'
check dp-exhaustive '{"dp_grids": "d5a7a83592831ce7320a15218b42425d8bab70e05036fc7c599243caf24b9ed3"}'
check grid-pipeline '{"compare_csv": "32304d3e5e194d979a5bb8d23100bf0d1e6b286044359246e3d5d6de3ee42b97", "vgrid": "dddc96a5f05c74e652a251443cb025f84b298209c4e43d08646ff76c9ae007f5"}'
