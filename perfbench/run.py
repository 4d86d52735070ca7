"""Benchmark of the qubitfeedback package on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload mc-diffusive --seed 0 --seconds 25 --trace 0

Workloads (see ``workloads.py``):

* ``mc-diffusive``: ``run_batch`` of 8192 homodyne paths x 2000 steps under
  the zero policy.  Exercises the Monte Carlo engine alone.
* ``dp-exhaustive``: ``solve_dp`` on a 21^3 x 20 grid, closed-form mode
  and then exhaustive mode over a 9 x 9 control grid.  Exercises the
  semi-Lagrangian solver alone.
* ``grid-pipeline``: in-process ``qubitfeedback solve`` (finite
  differences, counting model, 17^3 x 200) and then ``compare`` of the
  solved grid policy against the zero policy on 4096 paths.  Exercises
  the CLI, the FD solver, ``.vgrid`` I/O, policy extraction and the
  counting engine together.

One operation is one pass of the workload with the run's inputs.  The run
does one untimed warm-up operation, then repeats the operation until
``--seconds`` of wall time are used up (at least three timed operations).
Every operation's output is checked; a failed check or an exception
counts as a failed operation.  All work happens in this one process on
one thread: ``QUBITFEEDBACK_THREADS`` is unset and the BLAS pools are
limited to one thread before numpy loads.

Times are CPU seconds of this process (user + system, ``process_time``).
For a single-threaded CPU-bound run that is the wall time on an idle
machine, but it leaves out the time a shared host's hypervisor takes the
CPU away (steal), which moves wall time by tens of percent from one
minute to the next on small cloud machines.  Wall times are still
recorded, in the info line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``cpu_s``: median CPU time of one operation.
* ``work_per_s``: median work rate of the operation's main call, per CPU
  second: path-steps of ``run_batch`` (mc-diffusive), active node-steps
  of the exhaustive ``solve_dp`` (dp-exhaustive), path-steps of the
  ``compare`` command (grid-pipeline).
* ``peak_mem_mb``: peak resident memory of this process.
* ``setup_s``: median CPU time of ``import qubitfeedback`` in a fresh
  interpreter, plus the median time to build the workload's inputs.
* ``ok_frac``: share of attempted operations that passed their checks.

With ``--trace 1`` the operations alternate between untraced and traced;
the traced ones wrap package functions from outside (``layers.py``) and
the last line reports per-layer metrics: mean per traced operation of
each layer's inclusive time, calls and counts, each module's self time,
and the tracing overhead (mean traced minus mean untraced CPU time).

The line before the last one is ``{"info": ...}``: provenance, the
workload's computed counts, output digests, and every operation's wall
and CPU time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS_ENV = "QUBITFEEDBACK_THREADS"
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
MIN_OPS = 3
IMPORT_PROBE = (
    "import time; t = time.process_time(); import qubitfeedback; "
    "print(time.process_time() - t)"
)


def fail(message: str, code: int = 2):
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(code)


def prepare_environment() -> dict:
    """Single-threaded, unthreaded package; returns what was changed."""
    was = os.environ.pop(THREADS_ENV, None)
    for name in ONE_THREAD:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))
    return {"QUBITFEEDBACK_THREADS_was_set": was is not None,
            "QUBITFEEDBACK_THREADS_unset": True,
            "blas_threads": 1}


def import_seconds() -> list[float]:
    """CPU seconds of ``import qubitfeedback`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(env_changes: dict) -> dict:
    import numpy

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **env_changes,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def run_op(wl, inputs, install, tracer=None):
    """One operation: (wall s, CPU s, Outcome), or (None, None, problems).

    With a tracer, ``install(tracer)`` wraps the traced functions for the
    operation's duration.
    """
    try:
        w0, c0 = perf_counter(), process_time()
        if tracer is None:
            work_s, out = wl.run(inputs, lambda policy: policy)
            cpu = process_time() - c0
        else:
            install(tracer)
            try:
                (work_s, out), cpu = tracer.run_root(
                    lambda: wl.run(inputs, lambda p: tracer.span("trajectories.policy", p))
                )
            finally:
                tracer.restore()
        wall = perf_counter() - w0
        return wall, cpu, wl.check(inputs, work_s, out)
    except Exception:  # a crashing operation is a failed operation, not a crashed run
        return None, None, [traceback.format_exc(limit=4)]


def measure(wl, inputs, seconds: float, trace: int, install) -> list:
    """One untimed warm-up operation, then operations until ``seconds`` pass.

    Returns ``(tracer or None, wall, cpu, Outcome or problems)`` per
    operation, warm-up first.  With ``trace`` the timed operations alternate
    untraced and traced, starting untraced.
    """
    ops = [(None, *run_op(wl, inputs, install))]
    need = MIN_OPS + 1 if trace else MIN_OPS  # traced: at least two of each kind
    walls = []
    start = perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and len(ops) % 2 == 0 else None
        wall, cpu, outcome = run_op(wl, inputs, install, tracer)
        ops.append((tracer, wall, cpu, outcome))
        if wall is not None:
            walls.append(wall)
        typical = statistics.median(walls) if walls else 0.0
        if len(ops) - 1 >= need and perf_counter() - start + typical > seconds:
            return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qubitfeedback" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'qubitfeedback'}; run from a checkout")
    env_changes = prepare_environment()

    import checks  # these import numpy, so only after the thread limits are set
    import layers
    import selftest
    import workloads
    import qubitfeedback

    if Path(qubitfeedback.__file__).resolve().parent != SRC / "qubitfeedback":
        fail(f"imported qubitfeedback from {qubitfeedback.__file__}, not {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    broken = selftest.run_all()
    if broken:
        fail("negative controls passed vacuously: " + "; ".join(broken), 1)
    wl = workloads.WORKLOADS[args.workload]

    imports = import_seconds()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = process_time()
            inputs = wl.build(args.seed, workdir)
            builds.append(process_time() - t0)
        setup_s = statistics.median(imports) + statistics.median(builds)
        ops = measure(wl, inputs, args.seconds, args.trace, layers.install)

    # every operation passes its checks, yields the pinned counts and
    # repeats the first operation's output digests
    first = next((o for *_, o in ops if isinstance(o, workloads.Outcome)), None)
    first_digests = first.digests if first else None
    problems = []
    for i, (*_, o) in enumerate(ops):
        if isinstance(o, workloads.Outcome):
            p = list(o.problems)
            p += checks.equal("counts", o.counts, wl.expected_counts)
            p += checks.equal("digests", o.digests, first_digests)
        else:
            p = o
        if p:
            problems.append({"op": i, "problems": p})
    attempted, failed = len(ops), len(problems)

    timed = [(t, c, o) for t, w, c, o in ops[1:] if c is not None]
    untraced = [(c, o) for t, c, o in timed if t is None]
    traced = [(t, c) for t, c, _ in timed if t is not None]
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(env_changes),
        "counts": first.counts if first else None,
        "digests": first_digests,
        "warmup_wall_s": ops[0][1],
        "op_wall_s": [w for _, w, _, _ in ops[1:]],
        "op_cpu_s": [c for _, _, c, _ in ops[1:]],
        "op_traced": [t is not None for t, *_ in ops[1:]],
        "op_work_cpu_s": [o.work_s if isinstance(o, workloads.Outcome) else None
                          for *_, o in ops[1:]],
        "import_s": imports,
        "build_s": builds,
        "problems": problems[:5],
    }
    print(json.dumps({"info": info}, sort_keys=True))

    if not untraced or (args.trace and not traced):
        fail("no operation completed", 1)
    if not args.trace:
        metrics = {
            "cpu_s": (statistics.median(c for c, _ in untraced), "s"),
            "work_per_s": (statistics.median(o.work / o.work_s for _, o in untraced), "1/s"),
            "peak_mem_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
            "ok_frac": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        # means, so that the module self times, bench.self_s and trace.hook_s
        # add up to trace.traced_cpu_s, and trace.traced_cpu_s minus
        # trace.overhead_s is trace.untraced_cpu_s
        per_op = [layers.op_metrics(t, wl.expected_counts) for t, _ in traced]
        values = {name: statistics.fmean(m[name] for m in per_op) for name in per_op[0]}
        untraced_cpu = statistics.fmean(c for c, _ in untraced)
        traced_cpu = statistics.fmean(c for _, c in traced)
        values["trace.untraced_cpu_s"] = untraced_cpu
        values["trace.traced_cpu_s"] = traced_cpu
        values["trace.overhead_s"] = traced_cpu - untraced_cpu
        values["trace.overhead_frac"] = (traced_cpu - untraced_cpu) / untraced_cpu
        metrics = {name: (values[name], unit) for name, unit in layers.metric_units().items()}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
