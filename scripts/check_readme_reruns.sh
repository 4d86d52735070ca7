#!/usr/bin/env bash
# Run the five CLI commands of the README twice, each time in a fresh
# temporary directory, and check that stdout and every written file
# (angle.vgrid included) are byte-identical between the two runs, and
# that compare's CSV still has its recorded sha256.
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
# compare races its three policies over 10000 paths, three chunks; this
# ranking was recorded when each policy still ran a batch of its own
compare_sha256=affaf63c07fdde4099f39d6e5eb6a622eb3794d871b6a17754e475b09fd454d1
got="$(sha256sum < "$first/compare.out" | cut -d ' ' -f 1)"
if [ "$got" != "$compare_sha256" ]; then
    echo "compare.out has sha256 $got, expected $compare_sha256" >&2
    exit 1
fi
echo "README commands rerun byte-identically: $(ls "$first" | tr '\n' ' ')"
