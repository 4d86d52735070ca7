"""Negative controls for the benchmark's correctness checks.

Each workload check is fed a synthetic output that must pass and a set of
perturbed outputs that must each be rejected, so no check passes
vacuously.  ``run.py`` runs these before every benchmark run; run them
alone with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import math
import sys

import numpy as np

import checks

T_DP, BOX_DP, S_DP, H_DP = 0.2, 2.0, 0.5, 0.1  # tolerance T s^2 + 2 h^2 = 0.07
T_PIPE, BOX_PIPE, N_PIPE = 0.5, 1.0, 4096
GRID_ARM = "grid:pipeline.vgrid"


def _grid(n_slices=3, n=5):
    axis = np.linspace(-1.0, 1.0, n)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    mask = np.sum(pts * pts, axis=-1) <= 1.0
    pz = pts[..., 2]
    values = np.full((n_slices,) + mask.shape, np.nan)
    for k in range(n_slices):
        values[k][mask] = (1.0 - pz[mask]) * (0.8 + 0.1 * k)
    values[-1][mask] = 1.0 - pz[mask]
    return values, mask, pz


def _mc(mean_shift=0.5, n_costs=8192, stderr=0.004):
    mean = checks.zero_policy_cost(2.0) + mean_shift * stderr
    return checks.check_mc(mean, stderr, n_costs, 2.0, 8192)


def _dp(gap=0.03, poke=None):
    closed, mask, pz = _grid()
    exhaustive = closed.copy()
    exhaustive[:-1][:, mask] += gap
    if poke is not None:
        poke(exhaustive, mask)
    return checks.check_dp(closed, exhaustive, mask, pz, T_DP, BOX_DP, S_DP, H_DP)


def _csv(zero_shift=-0.24, gap=0.195, stderr=0.012, n=N_PIPE, arms=("zero", GRID_ARM)):
    zero = checks.zero_policy_cost(T_PIPE) + zero_shift * stderr
    means = {"zero": zero, GRID_ARM: zero - gap}
    rows = sorted((means.get(a, zero), a) for a in arms)
    lines = ["policy,mean,stderr,n"]
    lines += [f"{a},{m!r},{stderr!r},{n}" for m, a in rows]
    return "\n".join(lines) + "\n"


def _pipeline(solve_rc=0, compare_rc=0, csv=None, poke=None, shape=None):
    values, mask, pz = _grid(n_slices=4)
    if poke is not None:
        poke(values, mask)
    if shape is not None:
        values = values[:shape]
    return checks.check_pipeline(
        solve_rc, compare_rc, _csv() if csv is None else csv, values,
        (4,) + mask.shape, mask, pz, T_PIPE, BOX_PIPE, GRID_ARM, N_PIPE,
    )


def _set(index, value):
    def poke(values, mask):
        first = tuple(np.argwhere(mask)[0])
        values[(index,) + first] = value
    return poke


def _nudge_terminal(values, mask):
    first = tuple(np.argwhere(mask)[0])
    values[(-1,) + first] = np.nextafter(values[(-1,) + first], 10.0)


CONTROLS = {
    "mc: mean shifted +5 stderr": lambda: _mc(mean_shift=5.0),
    "mc: mean shifted -5 stderr": lambda: _mc(mean_shift=-5.0),
    "mc: one path missing": lambda: _mc(n_costs=8191),
    "mc: zero stderr": lambda: _mc(stderr=0.0),
    "dp: gap above T s^2 + 2 h^2": lambda: _dp(gap=0.075),
    "dp: NaN on an active node": lambda: _dp(poke=_set(0, np.nan)),
    "dp: negative value": lambda: _dp(poke=_set(0, -1e-3)),
    "dp: value above 2 + box^2 T": lambda: _dp(poke=_set(0, 2.0 + BOX_DP**2 * T_DP + 1e-3)),
    "dp: terminal slice off by one ulp": lambda: _dp(poke=_nudge_terminal),
    "pipeline: solve exit code 1": lambda: _pipeline(solve_rc=1),
    "pipeline: compare exit code 2": lambda: _pipeline(compare_rc=2),
    "pipeline: zero arm shifted 5 stderr": lambda: _pipeline(csv=_csv(zero_shift=5.0)),
    "pipeline: grid gap below 3 combined stderr": lambda: _pipeline(
        csv=_csv(gap=2.9 * math.hypot(0.012, 0.012))),
    "pipeline: grid arm missing": lambda: _pipeline(csv=_csv(arms=("zero", "constant:0,0"))),
    "pipeline: short batch": lambda: _pipeline(csv=_csv(n=N_PIPE - 1)),
    "pipeline: garbled CSV": lambda: _pipeline(csv="mean\n1.0\n"),
    "pipeline: .vgrid missing a slice": lambda: _pipeline(shape=3),
    "pipeline: .vgrid NaN on an active node": lambda: _pipeline(poke=_set(1, np.nan)),
    "pipeline: .vgrid terminal slice off by one ulp": lambda: _pipeline(poke=_nudge_terminal),
    "counts: one count changed": lambda: checks.equal(
        "counts", {"path_steps": 16_383_999}, {"path_steps": 16_384_000}),
    "digests: output changed between operations": lambda: checks.equal(
        "digests", {"vgrid": "ab"}, {"vgrid": "ac"}),
}

BASELINES = {
    "mc: unperturbed": _mc,
    "dp: unperturbed": _dp,
    "pipeline: unperturbed": _pipeline,
}


def run_all() -> list[str]:
    """Names of baselines that fail and of perturbations that pass."""
    broken = [f"{name} was rejected: {p}" for name, fn in BASELINES.items() if (p := fn())]
    broken += [f"{name} was accepted" for name, fn in CONTROLS.items() if not fn()]
    return broken


if __name__ == "__main__":
    broken = run_all()
    for line in broken:
        print("FAIL", line)
    print(f"{len(BASELINES)} baselines, {len(CONTROLS)} negative controls, "
          f"{len(broken)} broken")
    sys.exit(1 if broken else 0)
