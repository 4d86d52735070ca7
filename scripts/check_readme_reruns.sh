#!/usr/bin/env bash
# Run the five CLI commands of the README, and its INI example through
# `compare --config run.ini`, twice, each time in a fresh temporary
# directory, and check that stdout and every written file (angle.vgrid
# and out/summary.json included) are byte-identical between the two runs,
# and that each of them still has its recorded sha256.
#
#   bash scripts/check_readme_reruns.sh
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"

# a RuntimeWarning (a NaN cast, an overflow) fails the command
qf() { python -W error::RuntimeWarning -m qubitfeedback "$@" --no-timings; }

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
    # the README's INI example, as printed there; it writes out/summary.json
    awk '/^```ini$/ { on = 1; next } /^```$/ { on = 0 } on' "$repo/README.md" > run.ini
    mkdir out
    qf compare --config run.ini > compare-ini.out
}

first="$(mktemp -d)"
second="$(mktemp -d)"
trap 'rm -rf "$first" "$second"' EXIT

(readme_commands "$first")
(readme_commands "$second")

test -s "$first/angle.vgrid"
test -s "$first/out/summary.json"
diff <(cd "$first" && find . | sort) <(cd "$second" && find . | sort)
for path in "$first"/* "$first"/out/*; do
    if [ -f "$path" ]; then
        cmp "$path" "$second/${path#"$first"/}"
    fi
done
# every output has the sha256 recorded at the commit that added this
# table; compare races its three policies over 10000 paths, three chunks,
# and its ranking was recorded when each policy still ran a batch of its own.
# out/summary.json was recorded when compare first wrote its summary
# without --table
while read -r name want; do
    got="$(sha256sum < "$first/$name" | cut -d ' ' -f 1)"
    if [ "$got" != "$want" ]; then
        echo "$name has sha256 $got, expected $want" >&2
        exit 1
    fi
done <<'PINS'
simulate.out ef670e613b1091a13a59549c7815fdc0610833828e0697e115bf8d2940da35b8
solve.out c29d0424a19d902037ed42b7ba93733ea5773c3338164fa91b4ad17744d4fb53
angle.vgrid ff0419bb42be31746a8c896082d6a77663ded2de8372005ba598c55011e86182
evaluate.out ec90ed0703802aab4299b698ae910297105842c0e4a1e063ddcadcd88fddcda4
lq.out 85c4667a88136c4a96b87dd0eadfe46dadefc2fc35bfb16a84e75c2e875ed01e
compare.out affaf63c07fdde4099f39d6e5eb6a622eb3794d871b6a17754e475b09fd454d1
out/summary.json aa18411c340bbf81611b8db013882c4a0dd2c537f718385387225ad46d049ff8
PINS
echo "README commands rerun byte-identically: $(ls "$first" | tr '\n' ' ')"
