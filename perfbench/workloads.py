"""The three benchmark workloads: inputs, the timed operation, and its checks.

Every operation of a run repeats the same inputs, which come from the run's
seed.  So each operation's output digest must equal the first one's, and
the counts derived from the outputs (path-steps, active nodes, ``.vgrid``
bytes) must equal the values pinned here, or the operation fails.  A
workload cannot shrink silently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass
from time import process_time

import numpy as np

import qubitfeedback.bellman as bellman
import qubitfeedback.cli as cli
import qubitfeedback.trajectories as trajectories
from qubitfeedback.filters import ModelParams

import checks

CHUNK = 4096  # run_batch's default chunk size, which sizes the noise buffer


def _sha256(*blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, reduced to what the run reports."""

    work: int  # work units for ``work_per_s``
    work_s: float  # CPU seconds of the call that did them
    problems: list
    counts: dict
    digests: dict


# ---------------------------------------------------------------------------
# mc-diffusive: the Monte Carlo engine alone


class MonteCarlo:
    name = "mc-diffusive"
    horizon_T = 2.0
    dt = 1e-3
    n_paths = 8192
    n_steps = 2000
    expected_counts = {
        "path_steps": n_paths * n_steps,
        "noise_bytes": CHUNK * n_steps * 8,
    }

    def build(self, seed: int, workdir: str) -> dict:
        return {
            "seed": seed,
            "params": ModelParams(kappa_s_sq=0.5, horizon_T=self.horizon_T),
            "x0": np.array([1.0, 0.0, 0.0]),
            "policy": trajectories.zero_policy(trajectories.DIFFUSIVE),
        }

    def run(self, inp: dict, wrap_policy):
        t0 = process_time()
        stats, costs = trajectories.run_batch(
            trajectories.DIFFUSIVE, wrap_policy(inp["policy"]), inp["x0"],
            inp["params"], self.dt, self.n_paths, seed=inp["seed"],
            return_costs=True,
        )
        return process_time() - t0, (stats, costs)

    def check(self, inp: dict, work_s: float, out) -> Outcome:
        stats, costs = out
        problems = checks.check_mc(stats.mean, stats.stderr, costs.size,
                                   self.horizon_T, self.n_paths)
        counts = {
            "path_steps": costs.size * self.n_steps,
            "noise_bytes": min(CHUNK, costs.size) * self.n_steps * 8,
        }
        digests = {"mc_costs": _sha256(np.ascontiguousarray(costs, "<f8").tobytes())}
        return Outcome(counts["path_steps"], work_s, problems, counts, digests)


# ---------------------------------------------------------------------------
# dp-exhaustive: the semi-Lagrangian solver alone


class ExhaustiveDP:
    name = "dp-exhaustive"
    n_nodes = 21
    n_steps = 20
    horizon_T = 0.2
    control_box = 2.0
    control_resolution = 9
    active_nodes = 4169  # nodes of the 21^3 grid inside the Bloch ball
    expected_counts = {
        "active_nodes": active_nodes,
        "slices": n_steps + 1,
        "node_steps": 2 * active_nodes * n_steps,
        # two queries (the +/- noise kicks) per node, candidate and step;
        # closed-form mode evaluates one candidate
        "interp_queries": active_nodes * n_steps * 2 * (control_resolution**2 + 1),
    }

    def build(self, seed: int, workdir: str) -> dict:
        # the solve is deterministic: the seed does not enter its inputs
        spec = bellman.GridSpec(
            model=trajectories.DIFFUSIVE, n_nodes=self.n_nodes, n_steps=self.n_steps,
            horizon_T=self.horizon_T, control_box=self.control_box,
            control_resolution=self.control_resolution,
        )
        return {"spec": spec,
                "params": ModelParams(kappa_s_sq=0.5, horizon_T=self.horizon_T)}

    def run(self, inp: dict, wrap_policy):
        closed = bellman.solve_dp(inp["spec"], inp["params"], mode=bellman.CLOSED_FORM)
        t0 = process_time()
        exhaustive = bellman.solve_dp(inp["spec"], inp["params"], mode=bellman.EXHAUSTIVE)
        return process_time() - t0, (closed, exhaustive)

    def check(self, inp: dict, work_s: float, out) -> Outcome:
        closed, exhaustive = out
        spec = inp["spec"]
        mask = spec.active_mask()
        want = (self.n_steps + 1,) + spec.shape
        problems = []
        for label, vg in (("closed-form", closed), ("exhaustive", exhaustive)):
            problems += checks.equal(f"dp {label}: shape", vg.values.shape, want)
        if not problems:
            problems = checks.check_dp(
                closed.values, exhaustive.values, mask, spec.points()[..., 2],
                self.horizon_T, self.control_box,
                float(np.diff(spec.control_values())[0]), spec.spacings()[0],
            )
        active = int(mask.sum())
        slices = exhaustive.values.shape[0]
        counts = {
            "active_nodes": active,
            "slices": slices,
            "node_steps": 2 * active * (slices - 1),
            "interp_queries": active * (slices - 1) * 2 * (spec.control_resolution**2 + 1),
        }
        digests = {"dp_grids": _sha256(
            *(np.ascontiguousarray(a, "<f8").tobytes() for a in (
                closed.values, closed.controls, exhaustive.values, exhaustive.controls))
        )}
        return Outcome(active * (slices - 1), work_s, problems, counts, digests)


# ---------------------------------------------------------------------------
# grid-pipeline: the README's solve -> compare flow through the CLI


class GridPipeline:
    name = "grid-pipeline"
    n_nodes = 17
    n_steps = 200
    horizon_T = 0.5
    control_box = 1.0
    dt = 1e-3
    n_paths = 4096
    mc_steps = 500  # horizon_T / dt
    active_nodes = 2109  # nodes of the 17^3 grid inside the Bloch ball
    path_steps = 2 * n_paths * mc_steps  # two policies under common random numbers
    vgrid_payload = 8 * (n_steps + 1) * 3 * n_nodes**3  # values + 2 controls
    expected_counts = {
        "path_steps": path_steps,
        "noise_bytes": CHUNK * mc_steps * 8,
        "active_nodes": active_nodes,
        "slices": n_steps + 1,
        "node_steps": active_nodes * n_steps,
        # one ground-state query per FD step, and the grid arm's policy
        # interpolates two control components at every path-step
        "interp_queries": n_steps + 2 * n_paths * mc_steps,
        "vgrid_bytes": vgrid_payload + 352,  # 352-byte JSON header line
    }

    def build(self, seed: int, workdir: str) -> dict:
        grid = os.path.join(workdir, "pipeline.vgrid")
        model = ["--model", "counting-qubit", "--kappa-s-sq", "0.5",
                 "--horizon-t", str(self.horizon_T)]
        return {
            "grid": grid,
            "solve": ["solve", *model, "--method", "fd",
                      "--n-nodes", str(self.n_nodes), "--n-steps", str(self.n_steps),
                      "--control-box", str(self.control_box), "--grid", grid],
            "compare": ["compare", *model, "--x0", "1,0,0",
                        "--policy", f"grid:{grid}", "--policy", "zero",
                        "--n-paths", str(self.n_paths), "--dt", str(self.dt),
                        "--seed", str(seed), "--no-timings"],
        }

    def run(self, inp: dict, wrap_policy):
        err = io.StringIO()
        solve_out, compare_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            with contextlib.redirect_stdout(solve_out):
                solve_rc = cli.main(inp["solve"])
            t0 = process_time()
            with contextlib.redirect_stdout(compare_out):
                compare_rc = cli.main(inp["compare"])
            work_s = process_time() - t0
        return work_s, (solve_rc, compare_rc, compare_out.getvalue(), err.getvalue())

    def check(self, inp: dict, work_s: float, out) -> Outcome:
        solve_rc, compare_rc, csv_text, err_text = out
        with open(inp["grid"], "rb") as fh:
            raw = fh.read()
        vg = bellman.ValueGrid.load(inp["grid"])
        spec = vg.spec
        want = (self.n_steps + 1,) + (self.n_nodes,) * 3
        mask = spec.active_mask() if spec.shape == want[1:] else None
        grid_arm = f"grid:{inp['grid']}"
        problems = checks.check_pipeline(
            solve_rc, compare_rc, csv_text, vg.values, want, mask,
            spec.points()[..., 2], self.horizon_T, self.control_box,
            grid_arm, self.n_paths,
        )
        if solve_rc or compare_rc:
            problems.append(f"pipeline stderr: {err_text.strip()[-300:]}")
        try:
            rows = checks.parse_compare_csv(csv_text)
        except ValueError:
            rows = {}  # already reported by check_pipeline
        n_total = sum(r[2] for r in rows.values())
        n_grid = rows.get(grid_arm, (0, 0, 0))[2]
        active = int(mask.sum()) if mask is not None else 0
        counts = {
            "path_steps": n_total * self.mc_steps,
            "noise_bytes": min(CHUNK, self.n_paths) * self.mc_steps * 8,
            "active_nodes": active,
            "slices": vg.values.shape[0],
            "node_steps": active * (vg.values.shape[0] - 1),
            "interp_queries": self.n_steps + 2 * n_grid * self.mc_steps,
            "vgrid_bytes": len(raw),
        }
        # the CSV names the grid by path; digest it with the path replaced
        csv_stable = csv_text.replace(inp["grid"], "<grid>")
        digests = {"compare_csv": _sha256(csv_stable.encode()), "vgrid": _sha256(raw)}
        return Outcome(counts["path_steps"], work_s, problems, counts, digests)


WORKLOADS = {w.name: w for w in (MonteCarlo(), ExhaustiveDP(), GridPipeline())}
