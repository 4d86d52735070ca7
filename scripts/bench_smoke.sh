#!/usr/bin/env bash
# Run each benchmark workload briefly on seed 1, untraced and traced, and
# check that every operation passed its checks and that the output digests
# equal the ones recorded for seed 1.  A change that moves any fixed-seed
# output bit fails here, and so does one that renames a function the
# tracer wraps without marking it optional.  The traced pass also fails
# when a named layer reads 0, as it does when the engine captures a kernel
# at import and so bypasses the tracer's wrapper, or, where a layer is
# given with a count (not null), when its calls per operation differ from
# it, as they do when a kernel is bypassed or called twice.
#
#   bash scripts/bench_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.."

check() {
    local workload="$1" digests="$2" traced="${3:-{\}}" trace
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace "$trace" \
            | python3 -c '
import json
import sys

workload, want, trace = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
traced = json.loads(sys.argv[4]) if trace == "1" else {}
lines = sys.stdin.read().splitlines()
info = json.loads(lines[-2])["info"]
result = json.loads(lines[-1])
if result["correct"] is not True:
    sys.exit(f"{workload} (trace {trace}): not correct: {lines[-1]}")
got = info["digests"]
if got != want:
    sys.exit(f"{workload} (trace {trace}): digests {got} differ from {want}")
seen = {name: result["metrics"].get(name, {}).get("value", 0) for name in traced}
off = {name: seen[name] for name, count in traced.items() if count is not None and seen[name] != count}
if off:
    sys.exit(f"{workload} (trace {trace}): traced calls per op {off} differ from {traced}")
blind = [name for name, value in seen.items() if not value > 0]
if blind:
    sys.exit(f"{workload} (trace {trace}): traced layers read 0: {blind}")
print(f"{workload} (trace {trace}): correct, digests match")
' "$workload" "$digests" "$trace" "$traced"
    done
}

# one kernel call and one policy call per step and policy: 2 chunks x 2000
# steps on mc-diffusive, 2 policies x 500 steps on grid-pipeline
check mc-diffusive '{"mc_costs": "df39d5e77df09d8034e280354b2020116c68a42d1f6be4017a813b5e18372f7e"}' \
    '{"trajectories.step.calls": 4000, "trajectories.policy.calls": 4000}'
# the solver's interpolation and mask fill are optional hooks, so a rename
# or a scan that reads around them would otherwise pass unseen: per op, 20
# closed-form reads and 20 steps x 9 u_plus rows x 3 u_minus blocks of scan
# reads, and one fill per step of each of the two solves
check dp-exhaustive '{"dp_grids": "09d8f1432e324e80a5bab8aad540b874946ee4d67558d29d6b18f2a43b6ae762"}' \
    '{"bellman.interp.calls": 560, "bellman.fill_inactive.calls": 40}'
# the FD counting solve reads J at the ground state once per step, through one
# fill and one interpolation of the slice (200 per op), and extract_policy
# fills its 201 control slices in 17 blocks: a ground read that is bypassed
# or doubled moves these counts
check grid-pipeline '{"compare_csv": "32304d3e5e194d979a5bb8d23100bf0d1e6b286044359246e3d5d6de3ee42b97", "vgrid": "1091bf6297537129bdf4cec61395cad352d25e48071df207f596fef86f09e32d"}' \
    '{"trajectories.step.calls": 1000, "trajectories.policy.calls": 1000, "bellman.interp.calls": 200, "bellman.fill_inactive.calls": 217, "cli.solve.s": null, "cli.compare.s": null}'
