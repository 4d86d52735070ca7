"""Correctness checks of the workloads' outputs.

Each function takes plain numbers and arrays and returns a list of
problems (empty when the output is correct), so ``selftest.py`` can feed
it perturbed outputs and confirm that it rejects them.
"""

from __future__ import annotations

import math

import numpy as np

Z_MAX = 4.0  # Monte Carlo means must lie within this many stderrs of theory
BEAT_SIGMAS = 3.0  # a better policy must win by this many combined stderrs


def zero_policy_cost(horizon_T: float) -> float:
    """Exact mean cost of the zero policy from the equator.

    With no control the master equation gives 1 + pz(t) = (1 + pz(0)) e^{-t};
    from pz(0) = 0 the terminal cost 1 - pz(T) has mean 2 - e^{-T}.
    """
    return 2.0 - math.exp(-horizon_T)


def mean_near(label, mean, stderr, expected, z_max=Z_MAX) -> list[str]:
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr > 0.0):
        return [f"{label}: mean {mean!r} with stderr {stderr!r} is unusable"]
    z = (mean - expected) / stderr
    if abs(z) > z_max:
        return [f"{label}: mean {mean:.6g} is {z:+.2f} stderr from {expected:.6g}"]
    return []


def beats(label, better, better_se, worse, worse_se, sigmas=BEAT_SIGMAS) -> list[str]:
    margin = sigmas * math.hypot(better_se, worse_se)
    if not worse - better > margin:
        return [f"{label}: gap {worse - better:.4g} does not exceed {margin:.4g}"]
    return []


def values_sane(label, values, mask, upper) -> list[str]:
    """Active nodes of every slice are finite and lie in [0, upper]."""
    active = np.asarray(values)[..., mask]
    if not np.all(np.isfinite(active)):
        return [f"{label}: non-finite active values"]
    lo, hi = float(active.min()), float(active.max())
    if lo < 0.0 or hi > upper:
        return [f"{label}: active values span [{lo:.6g}, {hi:.6g}], outside [0, {upper:.6g}]"]
    return []


def terminal_exact(label, terminal_slice, mask, pz) -> list[str]:
    """The terminal slice holds 1 - pz exactly on the active nodes."""
    if not np.array_equal(np.asarray(terminal_slice)[mask], 1.0 - np.asarray(pz)[mask]):
        return [f"{label}: terminal slice is not 1 - pz"]
    return []


def equal(label, got, want) -> list[str]:
    if got != want:
        return [f"{label}: got {got!r}, expected {want!r}"]
    return []


def modes_gap(closed_form, exhaustive, mask) -> float:
    """Largest |closed-form - exhaustive| over active nodes of all slices."""
    diff = np.abs(np.asarray(closed_form)[..., mask] - np.asarray(exhaustive)[..., mask])
    return float(np.max(diff)) if np.all(np.isfinite(diff)) else math.inf


# -- one function per workload ---------------------------------------------


def check_mc(mean, stderr, n_costs, horizon_T, n_paths) -> list[str]:
    return equal("mc: costs returned", n_costs, n_paths) + mean_near(
        "mc: zero-policy cost", mean, stderr, zero_policy_cost(horizon_T)
    )


def check_dp(closed_form, exhaustive, mask, pz, horizon_T, control_box,
             control_spacing, node_spacing) -> list[str]:
    """Both solves are sane, start from 1 - pz, and agree to T s^2 + 2 h^2."""
    upper = 2.0 + control_box**2 * horizon_T
    tol = horizon_T * control_spacing**2 + 2.0 * node_spacing**2
    problems = []
    for label, values in (("closed-form", closed_form), ("exhaustive", exhaustive)):
        problems += values_sane(f"dp {label}", values, mask, upper)
        problems += terminal_exact(f"dp {label}", values[-1], mask, pz)
    gap = modes_gap(closed_form, exhaustive, mask)
    if not gap <= tol:
        problems.append(f"dp: closed-form vs exhaustive gap {gap:.4g} exceeds {tol:.4g}")
    return problems


def parse_compare_csv(text: str) -> dict:
    """``policy,mean,stderr,n`` rows of ``compare`` keyed by policy."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "policy,mean,stderr,n":
        raise ValueError(f"unexpected compare header {lines[:1]!r}")
    rows = {}
    for line in lines[1:]:
        policy, mean, stderr, n = line.rsplit(",", 3)
        rows[policy] = (float(mean), float(stderr), int(n))
    return rows


def check_pipeline(solve_rc, compare_rc, compare_csv, values, want_shape, mask, pz,
                   horizon_T, control_box, grid_arm, n_paths) -> list[str]:
    problems = equal("pipeline: solve exit code", solve_rc, 0)
    problems += equal("pipeline: compare exit code", compare_rc, 0)
    problems += equal("pipeline: .vgrid shape", tuple(np.shape(values)), want_shape)
    if tuple(np.shape(values)) == want_shape:
        problems += values_sane("pipeline .vgrid", values, mask, 2.0 + control_box**2 * horizon_T)
        problems += terminal_exact("pipeline .vgrid", values[-1], mask, pz)
    try:
        rows = parse_compare_csv(compare_csv)
    except ValueError as exc:
        return problems + [f"pipeline: {exc}"]
    if set(rows) != {"zero", grid_arm}:
        return problems + [f"pipeline: compare arms {sorted(rows)}"]
    zero, grid = rows["zero"], rows[grid_arm]
    problems += equal("pipeline: zero arm paths", zero[2], n_paths)
    problems += equal("pipeline: grid arm paths", grid[2], n_paths)
    problems += mean_near("pipeline: zero arm", zero[0], zero[1], zero_policy_cost(horizon_T))
    problems += beats("pipeline: grid beats zero", grid[0], grid[1], zero[0], zero[1])
    return problems
