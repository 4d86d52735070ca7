#!/usr/bin/env bash
# Run the five CLI commands of the README twice, each time in a fresh
# temporary directory, and check that stdout and every written file
# (angle.vgrid included) are byte-identical between the two runs.
#
#   bash scripts/check_readme_reruns.sh
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"

qf() { python -m qubitfeedback "$@" --no-timings; }

readme_commands() {
    cd "$1"
    qf simulate --model diffusive-qubit --x0 1,0,0 \
        --policy constant:0.5,0 --n-paths 5000 --dt 0.001 --seed 0 > simulate.out
    qf solve --model angle-lq --alpha 0.5 --horizon-t 1 \
        --grid angle.vgrid --n-nodes 401 --n-steps 10000 > solve.out
    qf evaluate --grid angle.vgrid --x0 1.0 \
        --n-paths 5000 --dt 0.01 --seed 0 > evaluate.out
    qf compare --model angle-lq --x0 1.0 --seed 0 --n-paths 10000 \
        --policy zero --policy constant:-0.4 --policy lq-closed-form > compare.out
    qf lq --t 0 --theta=-2:2:81 > lq.out
}

first="$(mktemp -d)"
second="$(mktemp -d)"
trap 'rm -rf "$first" "$second"' EXIT

(readme_commands "$first")
(readme_commands "$second")

test -s "$first/angle.vgrid"
diff <(ls "$first") <(ls "$second")
for path in "$first"/*; do
    cmp "$path" "$second/$(basename "$path")"
done
echo "README commands rerun byte-identically: $(ls "$first" | tr '\n' ' ')"
