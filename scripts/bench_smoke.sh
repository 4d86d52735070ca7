#!/usr/bin/env bash
# Run each benchmark workload briefly on seed 1, untraced and traced, and
# check that every operation passed its checks and that the output digests
# equal the ones recorded for seed 1.  A change that moves any fixed-seed
# output bit fails here, and so does one that renames a function the
# tracer wraps without marking it optional.  The traced pass also fails
# when a named layer reads 0, as it does when the engine captures a kernel
# at import and so bypasses the tracer's wrapper.
#
#   bash scripts/bench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

check() {
    local workload="$1" digests="$2" traced="${3:-[]}" trace
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace" \
            | python3 -c '
import json
import sys

workload, want, trace = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
traced = json.loads(sys.argv[4]) if trace == "1" else []
lines = sys.stdin.read().splitlines()
info = json.loads(lines[-2])["info"]
result = json.loads(lines[-1])
if result["correct"] is not True:
    sys.exit(f"{workload} (trace {trace}): not correct: {lines[-1]}")
got = info["digests"]
if got != want:
    sys.exit(f"{workload} (trace {trace}): digests {got} differ from {want}")
blind = [name for name in traced if not result["metrics"].get(name, {}).get("value", 0) > 0]
if blind:
    sys.exit(f"{workload} (trace {trace}): traced layers read 0: {blind}")
print(f"{workload} (trace {trace}): correct, digests match")
' "$workload" "$digests" "$trace" "$traced"
    done
}

engine='"trajectories.step.calls", "trajectories.policy.calls"'
check mc-diffusive '{"mc_costs": "df39d5e77df09d8034e280354b2020116c68a42d1f6be4017a813b5e18372f7e"}' \
    "[$engine]"
check dp-exhaustive '{"dp_grids": "d5a7a83592831ce7320a15218b42425d8bab70e05036fc7c599243caf24b9ed3"}'
check grid-pipeline '{"compare_csv": "32304d3e5e194d979a5bb8d23100bf0d1e6b286044359246e3d5d6de3ee42b97", "vgrid": "dddc96a5f05c74e652a251443cb025f84b298209c4e43d08646ff76c9ae007f5"}' \
    "[$engine, \"cli.solve.s\", \"cli.compare.s\"]"
