"""Which package functions are traced, under which layer names, and the
per-layer metrics a traced operation yields.

Layers are named ``<module>.<part>`` after the package modules.  Functions
are wrapped where their callers look them up: the step kernels' calls into
``filters`` are wrapped as ``qubitfeedback.trajectories.diffusive_drift``
and so on, the CLI's calls as ``qubitfeedback.cli.run_batch``.  Private
helpers are optional: a refactor may remove them, and their metrics then
read 0.
"""

from __future__ import annotations

import inspect
import os

import numpy as np

import qubitfeedback.bellman as bellman
import qubitfeedback.cli as cli
import qubitfeedback.filters as filters
import qubitfeedback.trajectories as trajectories

_RUN_BATCH = inspect.signature(trajectories.run_batch)

TIMED = (
    "trajectories.run_batch", "trajectories.step", "trajectories.policy",
    "filters.drift", "filters.diffusion", "filters.jump_intensity", "filters.project",
    "bellman.solve_dp", "bellman.dp_recursion_step", "bellman.interp",
    "bellman.fill_inactive", "bellman.solve_backward", "bellman.extract_policy",
    "bellman.vgrid_save", "bellman.vgrid_load",
    "persist.write",
    "cli.main", "cli.solve", "cli.compare",
)
CALLED = (
    "trajectories.run_batch", "trajectories.step", "trajectories.policy",
    "bellman.dp_recursion_step", "bellman.interp", "bellman.fill_inactive",
    "persist.write",
)
MODULES = ("trajectories", "filters", "bellman", "persist", "cli")
COUNTS = {  # counted by hooks at public functions
    "trajectories.path_steps": "count",
    "filters.project.rows": "count",
    "filters.project.moved": "count",
    "bellman.active_nodes": "count",
    "bellman.node_steps": "count",
    "bellman.slices": "count",
    "bellman.vgrid.bytes": "bytes",
    "persist.write.bytes": "bytes",
}
COMPUTED = {  # from the workload's pinned counts: no hook on private helpers
    "trajectories.noise_bytes": ("noise_bytes", "bytes"),
    "bellman.interp_queries": ("interp_queries", "count"),
}
DERIVED = {
    "trajectories.run_batch.self_s": "s",
    "filters.project.moved_frac": "ratio",
    "bench.self_s": "s",
    "trace.hook_s": "s",
    "trace.untraced_cpu_s": "s",
    "trace.traced_cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in TIMED:
        units[f"{layer}.s"] = "s"
        if layer in CALLED:
            units[f"{layer}.calls"] = "count"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units.update(COUNTS)
    units.update({name: unit for name, (_, unit) in COMPUTED.items()})
    units.update(DERIVED)
    return units


def install(tracer) -> None:
    """Wrap every traced function; ``tracer.restore()`` undoes it."""

    def on_run_batch(args, kwargs, result):
        bound = _RUN_BATCH.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        n_steps = int(round(a["params"].horizon_T / a["dt"]))
        tracer.add("trajectories.path_steps", a["n_paths"] * n_steps)

    def on_project(args, kwargs, result):
        p = np.asarray(args[0], dtype=float)
        tol = args[1] if len(args) > 1 else kwargs.get(
            "ball_tol", getattr(filters, "BALL_TOL", 1e-6))
        norms = np.sqrt(np.einsum("...i,...i->...", p, p))
        tracer.add("filters.project.rows", norms.size)
        tracer.add("filters.project.moved", np.count_nonzero(norms > 1.0 + tol))

    def on_solve(args, kwargs, vg):
        active = int(vg.spec.active_mask().sum())
        tracer.peak("bellman.active_nodes", active)
        tracer.peak("bellman.slices", vg.spec.n_steps + 1)
        tracer.add("bellman.node_steps", active * vg.spec.n_steps)

    def on_save(args, kwargs, result):
        tracer.add("bellman.vgrid.bytes", os.path.getsize(args[1]))

    def on_write(args, kwargs, result):
        data = args[1]
        tracer.add("persist.write.bytes", len(data if isinstance(data, bytes) else data.encode()))

    def trace_policy(policy):
        return tracer.span("trajectories.policy", policy)

    p = tracer.patch
    for owner in (trajectories, cli):
        p(owner, "run_batch", "trajectories.run_batch", on_run_batch)
    p(trajectories, "step_diffusive", "trajectories.step")
    p(trajectories, "step_counting", "trajectories.step")
    p(trajectories, "diffusive_drift", "filters.drift", optional=True)
    p(trajectories, "counting_drift", "filters.drift", optional=True)
    p(trajectories, "diffusive_diffusion", "filters.diffusion", optional=True)
    p(trajectories, "jump_intensity", "filters.jump_intensity", optional=True)
    p(trajectories, "project_to_ball", "filters.project", on_project, optional=True)
    p(bellman, "solve_dp", "bellman.solve_dp", on_solve)
    p(bellman, "dp_recursion_step", "bellman.dp_recursion_step")
    p(bellman, "_interp_box", "bellman.interp", optional=True)
    p(bellman, "_fill_inactive", "bellman.fill_inactive", optional=True)
    p(cli, "solve_backward", "bellman.solve_backward", on_solve)
    p(cli, "extract_policy", "bellman.extract_policy", wrap_result=trace_policy)
    p(bellman.ValueGrid, "save", "bellman.vgrid_save", on_save)
    p(bellman.ValueGrid, "load", "bellman.vgrid_load")
    p(bellman, "atomic_write_bytes", "persist.write", on_write)
    p(cli, "atomic_write_text", "persist.write", on_write)
    p(cli, "main", "cli.main")
    p(cli, "cmd_solve", "cli.solve")
    p(cli, "cmd_compare", "cli.compare")
    tracer.wrap_factory(cli, "zero_policy", trace_policy)


def op_metrics(tracer, computed: dict) -> dict:
    """Per-layer metrics of one traced operation (CPU-time totals added later).

    ``computed`` is the workload's pinned counts.
    """
    m = {}
    for layer in TIMED:
        m[f"{layer}.s"] = tracer.inclusive[layer]
        if layer in CALLED:
            m[f"{layer}.calls"] = tracer.calls[layer]
    for module in MODULES:
        m[f"{module}.self_s"] = sum(
            s for layer, s in tracer.self_time.items() if layer.split(".")[0] == module
        )
    for name in COUNTS:
        m[name] = tracer.counts[name]
    for name, (key, _) in COMPUTED.items():
        m[name] = computed.get(key, 0)
    m["trajectories.run_batch.self_s"] = tracer.self_time["trajectories.run_batch"]
    rows = tracer.counts["filters.project.rows"]
    m["filters.project.moved_frac"] = tracer.counts["filters.project.moved"] / rows if rows else 0.0
    m["bench.self_s"] = tracer.root_self_s
    m["trace.hook_s"] = tracer.hook_s
    return m
