"""Euler-Maruyama simulation of the monitored-qubit filtering equations.

Three models share one stepping engine:

* ``"diffusive"``: homodyne unraveling, states in the Bloch ball;
* ``"counting"``: photodetection unraveling with reset-to-ground jumps,
  sampled by Bernoulli thinning of the intensity;
* ``"angle"``: the exactly solvable dephasing model, state is the phase
  angle wrapped into [-pi, pi).

Costs follow the control problem: running cost u_plus^2 + u_minus^2 (or
B^2) integrated with a left-endpoint rule, plus terminal cost 1 - pz (or
theta^2).

Reproducibility: path i of a batch draws its noise from the substream
``SeedSequence((seed, i))``, so results are independent of how the paths
are split into chunks, and two batches with the same seed see identical
noise (common random numbers).  The PCG64 seeding words of a chunk's
substreams are computed in one vectorised pass (``_substreams``),
bit-equal to numpy's ``SeedSequence((seed, i))``, which a test pins; a
run without a seed draws one fresh 128-bit seed.  ``run_batches``, which
the CLI's ``compare`` uses, draws each noise block once and feeds it to
every policy; each policy gets the result its own batch would give.
``simulate`` is path 0 of its seed.  Paths run serially in chunks of
``CHUNK_PATHS`` = 4096; each path's noise is drawn in blocks of
``NOISE_BLOCK`` = 256 steps, via a tile of ``TILE_PATHS`` paths, into one
reused (256, 4096) buffer of per-step rows, so the engine's noise memory
is about 4096 * 256 * 8 bytes whatever the horizon.  Block-wise draws are
the same numbers as one draw over the horizon, so fixed-seed results are
unchanged bit for bit by the blocking.  Each policy has two state buffers,
written in turn, and the qubit kernels keep their intermediates in one
scratch array per chunk.  Counting paths reset to the ground state on a
detection and are deterministic between detections, so they share few
states (the quantum-jump picture): the engine calls each policy and the
kernel once on a table of the distinct states, which relies on a row's
control depending only on t and that row.  Each path keeps its bits.

What differs between the models is data in one frozen `ModelRecord` per
model (`MODEL_RECORDS`): the CLI and ``.vgrid`` id, state and control
shapes, noise kind, how one row of noise becomes a step (``advance``)
and a measurement record (``observe``), CSV header, grid bounds and
terminal cost.  The engine, the policy factories, the CSV writer, the
grid solvers and the CLI all read it; the engine is one loop for all
three models.

Validation happens at the API boundary: ``simulate``, ``run_batches``
and ``ensemble_means`` check x0 and dt once; each policy's output is
checked for shape and finiteness on every step, and each state for
finiteness at the end of every noise block.  States are projected back into the unit
ball when they leave it by more than ``filters.BALL_TOL``.  The step
kernels themselves do no checking.
"""

from __future__ import annotations

import dataclasses
import io
import math
import numbers
from typing import Callable

import numpy as np

from .filters import (
    BALL_TOL,
    GROUND_STATE,
    ModelParams,
    _angle_drift,
    _angle_gain,
    _counting_drift_xyz,
    _diffusive_diffusion_xyz,
    _diffusive_drift_xyz,
    _jump_intensity_z,
    _project_xyz,
    _xyz,
    jump_intensity,
    observation_drift,
)
from . import lq

DIFFUSIVE = "diffusive"
COUNTING = "counting"
ANGLE = "angle"


def wrap_angle(theta, out=None):
    """Wrap angles into [-pi, pi)."""
    return np.subtract(np.mod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi), np.pi, out)


# ---------------------------------------------------------------------------
# single Euler steps


# The qubit kernels work on components, so a state handed in as the (n, 3)
# transpose of a (3, n) array reads contiguous rows, and they return that
# same layout, written into ``out``; ``work`` holds the intermediates.  Both
# are allocated when not given.  They do no checking (see the module docstring).


def _step_buffers(p, out, work, u, noise):
    """p's components padded to the step's ndim, out, its (3, ...) view, work."""
    xyz = _xyz(p)
    if out is None or work is None:
        shape = np.broadcast_shapes(xyz.shape[1:], np.shape(u)[:-1], np.shape(noise))
        out = np.moveaxis(np.empty((3,) + shape), 0, -1) if out is None else out
        work = np.empty((3,) + shape) if work is None else work
    new = _xyz(out)
    return xyz.reshape((3,) + (1,) * (new.ndim - xyz.ndim) + xyz.shape[1:]), out, new, work


def step_diffusive(p, u, dt, dW, params: ModelParams, ball_tol: float = BALL_TOL,
                   out=None, work=None):
    """One Euler-Maruyama step of the homodyne filter, then ball projection.

    ``dW`` is the Wiener increment over the step (scalar or batch-shaped).
    ``out`` is the transpose of a (3, ...) array, ``work`` a contiguous
    one.  Inputs are not validated; see the engine's boundary checks.
    """
    xyz, out, new, work = _step_buffers(p, out, work, u, dW)
    _diffusive_drift_xyz(*xyz, *_xyz(u), new, work[0, ...])
    np.add(xyz, np.multiply(new, dt, new), new)
    _diffusive_diffusion_xyz(*xyz, params.kappa_s, work)
    np.add(new, np.multiply(work, dW, work), new)
    _project_xyz(new, ball_tol, work)
    return out


def step_counting(p, u, dt, jumped, params: ModelParams, ball_tol: float = BALL_TOL,
                  out=None, work=None, lam=None):
    """One step of the counting filter.

    The compensated drift is applied first; paths flagged in ``jumped``
    are then reset to the ground state, so a jump lands exactly on
    ``jump_target()`` regardless of dt.  ``lam``, the jump intensity at
    ``p``, is computed when not given.  Inputs are not validated.
    """
    jumped = np.asarray(jumped, dtype=bool)
    xyz, out, new, work = _step_buffers(p, out, work, u, jumped)
    if lam is None:
        lam = _jump_intensity_z(xyz[2], params.kappa_s_sq)
    _counting_drift_xyz(*xyz, *_xyz(u), lam, new, work)
    np.add(xyz, np.multiply(new, dt, new), new)
    np.copyto(new, GROUND_STATE.reshape((3,) + (1,) * (new.ndim - 1)), where=jumped)
    _project_xyz(new, ball_tol, work)
    return out


def step_angle(theta, B, dt, dW, params: ModelParams, out=None):
    """One Euler step of the phase angle, wrapped into [-pi, pi)."""
    theta = np.asarray(theta, dtype=float)
    B = np.asarray(B, dtype=float)
    dW = np.asarray(dW, dtype=float)
    return wrap_angle(theta + _angle_drift(B) * dt + _angle_gain(params.alpha) * dW, out)


def _thinned(lam, uniforms, dt, out=None):
    """Bernoulli thinning: True where a uniform draw falls below the pre-step
    intensity ``lam`` times dt.  The engine's counting step and
    `sample_jump` both flag their detections here."""
    return np.less(uniforms, np.multiply(lam, dt), out=out)


def sample_jump(p, dt, rng: np.random.Generator, params: ModelParams):
    """Bernoulli thinning: True where a detection occurs during dt.

    Draws one uniform per state and flags it as the engine's counting step
    flags its draws.
    """
    lam = jump_intensity(p, params)
    prob = lam * dt
    if np.any(prob >= 1.0):
        raise ValueError(
            f"dt * intensity reaches {np.max(prob)}; decrease dt below "
            f"{1.0 / max(float(np.max(lam)), 1e-300)}"
        )
    return _thinned(lam, rng.random(np.shape(prob)), dt)


# ---------------------------------------------------------------------------
# the per-model records


@dataclasses.dataclass(frozen=True)
class ModelRecord:
    """What distinguishes one model, as data.

    ``model_id`` is the public name on the command line and in ``.vgrid``
    headers.  Shapes are per path (``()`` for the scalar angle model).
    ``noise`` names the ``numpy.random.Generator`` method drawing each
    step's noise, scaled by sqrt(dt) into dW when ``wiener``.
    ``advance(state, u, dt, noise, params, out, work, rate, flags, member)``
    steps the states (path p on ``member[p]``, or p) on one row of it (dW, or
    the uniforms) into the buffers given, or allocated, and returns ``(new_state,
    increment)``: dW or the jump flags.  The caller resets to ``reset`` (or None).
    ``observe(states, increments, dt, params)`` gives the measurement
    record of those steps (the dY or dN column), or None for the angle.
    ``bounds`` and ``periodic`` describe the value-grid axes.
    ``terminal_cost`` maps states (trailing axes ``state_shape``) to the
    cost at the horizon; angle states are kept wrapped, so theta^2 is
    taken of the wrapped angle.
    """

    model_id: str
    state_shape: tuple[int, ...]
    control_shape: tuple[int, ...]
    noise: str
    wiener: bool
    advance: Callable
    observe: Callable
    csv_header: str
    bounds: tuple[tuple[float, float], ...]
    periodic: bool
    terminal_cost: Callable[[np.ndarray], np.ndarray]
    reset: np.ndarray | None = None

    @property
    def n_controls(self) -> int:
        return math.prod(self.control_shape)


# The kernels are named inside these bodies, so each step reads the
# module's current `step_*` function: a kernel wrapped by name (as the
# benchmark's tracer does) is the one that runs.


def _advance_diffusive(p, u, dt, dW, params, out=None, work=None, *_):
    return step_diffusive(p, u, dt, dW, params, BALL_TOL, out, work), dW


def _advance_counting(p, u, dt, uniforms, params, out=None, work=None, rate=None, flags=None,
                      member=None):
    # each state's pre-step intensity thins the uniforms of its paths and drives its drift
    lam = _jump_intensity_z(p[..., 2], params.kappa_s_sq, rate)
    jumped = _thinned(lam if member is None else lam[member], uniforms, dt, flags)
    return step_counting(p, u, dt, False, params, BALL_TOL, out, work, lam), jumped


def _advance_angle(theta, B, dt, dW, params, out=None, *_):
    return step_angle(theta, B, dt, dW, params, out), dW


_QUBIT = dict(
    state_shape=(3,), control_shape=(2,),
    csv_header="t,px,py,pz,u_plus,u_minus,dW_or_dN,dY,running_cost",
    bounds=((-1.0, 1.0),) * 3, periodic=False, terminal_cost=lambda p: 1.0 - p[..., 2],
)
MODEL_RECORDS = {
    DIFFUSIVE: ModelRecord(
        "diffusive-qubit", noise="standard_normal", wiener=True, advance=_advance_diffusive,
        observe=lambda p, dW, dt, params: observation_drift(p, params) * dt + dW, **_QUBIT,
    ),
    COUNTING: ModelRecord(
        "counting-qubit", noise="random", wiener=False, advance=_advance_counting,
        observe=lambda p, jumps, dt, params: jumps.copy(), reset=GROUND_STATE, **_QUBIT,
    ),
    ANGLE: ModelRecord(
        "angle-lq", state_shape=(), control_shape=(), noise="standard_normal",
        wiener=True, advance=_advance_angle, observe=lambda *_: None,
        csv_header="t,theta,B,dW,running_cost", bounds=((-np.pi, np.pi),),
        periodic=True, terminal_cost=lambda theta: theta * theta,
    ),
}
MODELS = tuple(MODEL_RECORDS)


def model_record(model: str) -> ModelRecord:
    """The record of a model given by its library name."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
    return MODEL_RECORDS[model]


def model_from_id(model_id) -> str:
    """Library name of the model with CLI / ``.vgrid`` id ``model_id``."""
    for name, rec in MODEL_RECORDS.items():
        if rec.model_id == model_id:
            return name
    ids = sorted(rec.model_id for rec in MODEL_RECORDS.values())
    raise ValueError(f"unknown model id {model_id!r}; expected one of {ids}")


# ---------------------------------------------------------------------------
# policies: callables (t, state) -> control, vectorized over leading axes,
# one control per row: shape (n,) for the angle model, (n, 2) for the qubits.
# A row's control must depend only on t and that row: the counting engine
# calls a policy on its distinct states, not once per path


def _control_shape(rec: ModelRecord, state) -> tuple[int, ...]:
    """Shape of the controls for a batch of states: path axes + control axes."""
    shape = np.shape(state)
    return shape[: len(shape) - len(rec.state_shape)] + rec.control_shape


def zero_policy(model: str):
    """No actuation; running cost is identically zero."""
    rec = model_record(model)
    return lambda t, state: np.zeros(_control_shape(rec, state))


def constant_policy(model: str, value):
    """Hold a fixed control: (u_plus, u_minus) for qubit models, B for angle."""
    rec = model_record(model)
    value = np.asarray(value, dtype=float)
    if value.shape != rec.control_shape:
        raise ValueError(
            f"the {model} model needs a control of shape {rec.control_shape}, "
            f"got {value.shape}"
        )
    return lambda t, state: np.broadcast_to(value, _control_shape(rec, state)).copy()


def lq_policy(params: ModelParams):
    """Closed-form optimal feedback for the angle model."""
    T = params.horizon_T
    return lambda t, state: lq.optimal_B(t, state, T)


# ---------------------------------------------------------------------------
# trajectories and cost summaries


@dataclasses.dataclass
class Trajectory:
    """One simulated path with everything needed to audit it.

    Arrays have n_steps + 1 rows for states and cumulative cost and
    n_steps rows for per-step quantities (control applied on [t_k,
    t_{k+1}), noise or jump indicator, observation increment).
    """

    model: str
    dt: float
    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    increments: np.ndarray
    observations: np.ndarray | None
    running_cost: np.ndarray
    terminal_cost: float
    total_cost: float
    seed: int | None = None

    def to_csv(self, path_or_file) -> None:
        """Write the path as CSV with 17 significant digits.

        One row per time node; per-step columns are written as 0 on the
        final (terminal) row, which has no step after it.
        """
        if hasattr(path_or_file, "write"):
            self._write(path_or_file)
        else:
            buf = io.StringIO()
            self._write(buf)
            from .persist import atomic_write_text

            atomic_write_text(path_or_file, buf.getvalue())

    def _write(self, fh) -> None:
        n = len(self.times) - 1
        fh.write(model_record(self.model).csv_header + "\n")
        per_step = (self.controls, self.increments, self.observations)
        step = np.column_stack([a.reshape(n, -1) for a in per_step if a is not None])
        step = np.vstack([step, np.zeros_like(step[:1])])
        states = self.states.reshape(n + 1, -1)
        for k in range(n + 1):
            fh.write(_row(self.times[k], *states[k], *step[k], self.running_cost[k]))


def _row(*values) -> str:
    return ",".join(f"{float(v):.17g}" for v in values) + "\n"


@dataclasses.dataclass(frozen=True)
class CostStatistics:
    """Summary of realized costs over a batch of paths."""

    n: int
    mean: float
    std: float
    stderr: float
    minimum: float
    maximum: float

    @classmethod
    def from_costs(cls, costs) -> "CostStatistics":
        costs = np.asarray(costs, dtype=float)
        n = costs.size
        if n == 0:
            raise ValueError("no costs to summarize")
        # sample std is undefined for one path; report 0 by convention
        std = float(costs.std(ddof=1)) if n > 1 else 0.0
        return cls(n=n, mean=float(costs.mean()), std=std, stderr=std / np.sqrt(n),
                   minimum=float(costs.min()), maximum=float(costs.max()))


# ---------------------------------------------------------------------------
# the engine


# paths are advanced in lockstep in chunks of this many; noise is drawn per
# path in blocks of NOISE_BLOCK steps, via tiles of TILE_PATHS paths, so a
# chunk's noise buffer holds CHUNK_PATHS * NOISE_BLOCK doubles whatever the horizon
CHUNK_PATHS = 4096
NOISE_BLOCK = 256
TILE_PATHS = 128


def _path_rngs(seed: int, indices) -> list[np.random.Generator]:
    """The generators of paths ``indices``: path i's is ``PCG64(SeedSequence((seed, i)))``,
    seeded in one pass for all of them."""
    from ._substreams import path_generators

    return path_generators(seed, indices)


def _n_steps(params: ModelParams, dt: float) -> int:
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    n = int(round(params.horizon_T / dt))
    if n < 1 or abs(n * dt - params.horizon_T) > 1e-9 * params.horizon_T:
        raise ValueError(
            f"dt={dt!r} does not divide the horizon T={params.horizon_T!r}"
        )
    return n


def _validated_start(model: str, x0, params: ModelParams, dt: float, seed, n_paths: int = 1):
    """Check a run's inputs once; return (n_steps, initial state of one path)."""
    rec = model_record(model)
    n_steps = _n_steps(params, dt)
    if not isinstance(n_paths, numbers.Integral) or n_paths < 1:
        raise ValueError(f"n_paths must be an integer >= 1, got {n_paths!r}")
    if n_paths > 2**32:  # a path's substream takes its index as one 32-bit word
        raise ValueError(f"n_paths must be at most 2**32, got {n_paths!r}")
    if seed is not None and not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    # the jump intensity peaks over the ball at pz = 1
    if model == COUNTING and dt * _jump_intensity_z(1.0, params.kappa_s_sq) >= 1.0:
        raise ValueError(
            "dt * max jump intensity >= 1; Bernoulli thinning needs a "
            "smaller step"
        )
    start = np.asarray(x0, dtype=float)
    if start.shape != rec.state_shape:
        raise ValueError(
            f"the {model} model needs an initial state of shape {rec.state_shape}, "
            f"got {start.shape}"
        )
    if not np.all(np.isfinite(start)):
        raise ValueError("initial state must be finite")
    if rec.periodic:
        return n_steps, wrap_angle(start)
    if np.linalg.norm(start) > 1.0 + BALL_TOL:
        raise ValueError("initial state outside the unit ball")
    return n_steps, start


def _checked_control(u, shape) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != shape:
        raise ValueError(f"policy returned shape {u.shape}, expected {shape}")
    if not np.isfinite(u).all():
        raise ValueError("policy returned non-finite controls")
    return u


def _effort(u: np.ndarray, out=None) -> np.ndarray:
    """|u|^2 per path, summed over the control components column by column."""
    first, *rest = u.reshape(len(u), -1).T
    out = np.multiply(first, first, out)
    for column in rest:
        out += column * column
    return out


def _on_paths(rows: np.ndarray, member) -> np.ndarray:
    """Per-path values of per-state ones: the states' own when paths have their own."""
    return rows if member is None else rows[member]


def _reset(table: np.ndarray, n_rows: int, member, jumped, state) -> int:
    """Point the paths that jumped at a row bit-equal to ``state`` (bytes, since
    == equates -0.0 and 0.0), appended when there is none; return the row count."""
    same = (table[:n_rows].view(np.uint64) == state.view(np.uint64)).all(axis=-1)
    row = int(same.argmax()) if same.any() else n_rows
    table[row], member[jumped] = state, row
    return max(n_rows, row + 1)


def _compact(table: np.ndarray, n_rows: int, member) -> int:
    """Drop the rows no path points at, in place; return the rows kept."""
    used = np.bincount(member, minlength=n_rows) > 0
    remap = np.cumsum(used) - 1
    member[:], table[: remap[-1] + 1] = remap[member], table[:n_rows][used]
    return int(remap[-1]) + 1


def _simulate_paths(model, policies, start, n_steps, params, dt, rngs, watch=None):
    """Advance len(rngs) paths in lockstep under each policy; return the
    per-path total costs, one row per policy.  Each noise block is drawn
    once for all policies.

    ``start`` and the other inputs come from `_validated_start`.  Each
    policy has two state buffers, written in turn; a qubit one is the
    (n, 3) transpose of a (3, n) array.  With a ``reset`` state they hold
    a table of distinct states, x0 alone at first, and ``member`` gives each
    path's row: paths that jump point at a reset row, and unused rows are
    dropped after each noise block.  The noise is one row per step.  ``watch(k,
    i, u, increment, state_after)`` sees step k of policy i per path, if given;
    its arguments are valid only during the call.
    """
    rec = MODEL_RECORDS[model]
    n_paths = len(rngs)
    resets = rec.reset is not None
    size = n_paths + NOISE_BLOCK if resets else n_paths
    first = np.repeat(np.asarray(start)[..., None], size, axis=-1)
    states = [[np.moveaxis(b, -1, 0) for b in (first.copy(), np.empty_like(first))] for _ in policies]
    n_rows = [1 if resets else n_paths for _ in policies]
    members = [np.zeros(n_paths, dtype=np.intp) if resets else None for _ in policies]
    costs = np.zeros((len(policies), n_paths))
    draw = getattr(np.random.Generator, rec.noise)
    # column i of a block holds path i's draws: the same numbers, in the
    # same order, as one draw of n_steps from its generator
    block = min(NOISE_BLOCK, n_steps)
    noise, tile = np.empty((block, n_paths)), np.empty((min(TILE_PATHS, n_paths), block))
    dW, rate, flags = np.empty(n_paths), np.empty(size), np.empty(n_paths, dtype=bool)
    effort_row = np.empty(size)
    work = np.empty((3, size))

    for block_start in range(0, n_steps, NOISE_BLOCK):
        block_len = min(NOISE_BLOCK, n_steps - block_start)
        for lo in range(0, n_paths, len(tile)):
            rows = tile[: n_paths - lo, :block_len]
            for row, r in zip(rows, rngs[lo : lo + len(rows)]):
                draw(r, out=row)
            noise[:block_len, lo : lo + len(rows)] = rows.T
        for j in range(block_len):
            k = block_start + j
            step_noise = np.multiply(noise[j], np.sqrt(dt), dW) if rec.wiener else noise[j]
            for i, policy in enumerate(policies):
                (state, spare), n, member = states[i], n_rows[i], members[i]
                u = _checked_control(policy(k * dt, state[:n]), (n,) + rec.control_shape)
                effort = _effort(u, effort_row[:n])
                effort *= dt
                costs[i] += _on_paths(effort, member)
                u_paths = None if watch is None else _on_paths(u, member)
                _, increment = rec.advance(state[:n], u, dt, step_noise, params, spare[:n],
                                           work[:, :n], rate[:n], flags, member)
                if resets and increment.any():
                    n_rows[i] = _reset(spare, n, member, increment, rec.reset)
                if watch is not None:
                    watch(k, i, u_paths, increment, _on_paths(spare[: n_rows[i]], member))
                states[i] = [spare, state]
        if resets:
            n_rows = [_compact(s, n, m) for (s, _), n, m in zip(states, n_rows, members)]
        if not all(np.isfinite(state[:n]).all() for (state, _), n in zip(states, n_rows)):
            raise ValueError(
                f"state became non-finite before t = {(block_start + block_len) * dt!r}"
            )

    for cost, (state, _), n, member in zip(costs, states, n_rows, members):
        cost += _on_paths(rec.terminal_cost(state[:n]), member)
    return costs


def _run_chunks(seed, out: np.ndarray, simulate_chunk) -> np.ndarray:
    """Call ``simulate_chunk(rngs, out[:, lo:hi])`` per chunk of paths; return out.

    Axis 1 of ``out`` runs over the paths.  Chunks of ``CHUNK_PATHS``
    paths run one after another.  Path i always gets the substream of
    (seed, i), so results do not depend on the split.  A run without a
    seed draws one fresh 128-bit seed for all its chunks.
    """
    n_paths = out.shape[1]
    if seed is None:
        seed = np.random.SeedSequence().entropy
    for lo in range(0, n_paths, CHUNK_PATHS):
        hi = min(lo + CHUNK_PATHS, n_paths)
        simulate_chunk(_path_rngs(seed, np.arange(lo, hi)), out[:, lo:hi])
    return out


def simulate(
    model: str,
    policy,
    x0,
    params: ModelParams,
    dt: float,
    seed: int | None = None,
) -> Trajectory:
    """Simulate one path and return its full record.

    Deterministic given (model, policy, x0, params, dt, seed); the noise
    stream is the path-0 substream of ``seed``, so the realized cost equals
    the first per-path cost of ``run_batch`` with the same seed.
    """
    n_steps, start = _validated_start(model, x0, params, dt, seed)
    rec = MODEL_RECORDS[model]
    states = np.empty((n_steps + 1,) + rec.state_shape)
    controls = np.empty((n_steps,) + rec.control_shape)
    increments = np.empty(n_steps)
    states[0] = start

    def watch(k, i, u, increment, state_after):
        controls[k], increments[k], states[k + 1] = u[0], increment[0], state_after[0]

    def chunk_cost(rngs, out):
        out[:] = _simulate_paths(model, [policy], start, n_steps, params, dt, rngs, watch)

    ((total,),) = _run_chunks(seed, np.empty((1, 1)), chunk_cost)
    # the engine's left-to-right sum, kept at every node
    running = np.zeros(n_steps + 1)
    np.cumsum(_effort(controls) * dt, out=running[1:])
    return Trajectory(
        model=model,
        dt=dt,
        times=np.arange(n_steps + 1) * dt,
        states=states,
        controls=controls,
        increments=increments,
        observations=rec.observe(states[:-1], increments, dt, params),
        running_cost=running,
        terminal_cost=float(rec.terminal_cost(states[-1])),
        total_cost=float(total),
        seed=seed,
    )


def run_batch(
    model: str,
    policy,
    x0,
    params: ModelParams,
    dt: float,
    n_paths: int,
    seed: int | None = None,
    return_costs: bool = False,
):
    """`run_batches` of one policy: CostStatistics of n_paths independent
    trajectories, or (CostStatistics, costs) with ``return_costs``."""
    (result,) = run_batches(model, [policy], x0, params, dt, n_paths, seed, return_costs)
    return result


def run_batches(
    model: str,
    policies,
    x0,
    params: ModelParams,
    dt: float,
    n_paths: int,
    seed: int | None = None,
    return_costs: bool = False,
) -> list:
    """Monte Carlo of each policy over the same n_paths noise paths.

    Path i always consumes the substream ``SeedSequence((seed, i))``, so
    results do not depend on the chunk size.  Each noise block is drawn
    once and fed to every policy (also with ``seed=None``), so each gets
    bit for bit the result of its own run.  Returns one CostStatistics, or
    (CostStatistics, costs) with ``return_costs``, per policy.  A row's
    control must depend only on t and that row: on the counting model a
    policy is called on the chunk's distinct states, not once per path.
    """
    n_steps, start = _validated_start(model, x0, params, dt, seed, n_paths)

    def chunk_costs(rngs, out):
        out[:] = _simulate_paths(model, policies, start, n_steps, params, dt, rngs)

    costs = _run_chunks(seed, np.empty((len(policies), n_paths)), chunk_costs)
    stats = [CostStatistics.from_costs(row) for row in costs]
    return list(zip(stats, costs)) if return_costs else stats


def ensemble_means(
    model: str,
    policy,
    x0,
    params: ModelParams,
    dt: float,
    n_paths: int,
    times,
    seed: int | None = None,
):
    """Monte Carlo mean state at the requested times.

    Useful for checking the unraveling against the deterministic master
    equation: the ensemble average of either conditional model follows the
    Lindblad flow.  Each requested time must sit on the step grid.  Returns
    ``(means, stderrs)`` with shape (len(times), 3) for the qubit models and
    (len(times),) for the angle model.  Same per-path substreams as
    ``run_batch``: results are independent of chunking.
    """
    n_steps, start = _validated_start(model, x0, params, dt, seed, n_paths)

    times = np.atleast_1d(np.asarray(times, dtype=float))
    # checked as floats, so a NaN or infinite time is refused before any cast
    idx = np.rint(times / dt)
    if (
        not np.all((idx >= 0) & (idx <= n_steps))
        or np.any(np.abs(idx * dt - times) > 1e-9 * max(params.horizon_T, 1.0))
    ):
        raise ValueError("every checkpoint must lie on the time grid in [0, T]")
    idx = idx.astype(int)
    if np.unique(idx).size != idx.size:
        raise ValueError("checkpoints must be distinct time nodes")

    snap_at = {int(node): j for j, node in enumerate(idx)}

    def chunk_snaps(rngs, out):
        if 0 in snap_at:
            out[snap_at[0]] = start

        def watch(k, i, u, increment, state_after):
            if k + 1 in snap_at:
                out[snap_at[k + 1]] = state_after

        _simulate_paths(model, [policy], start, n_steps, params, dt, rngs, watch)

    snaps = _run_chunks(seed, np.empty((len(idx), n_paths) + np.shape(start)), chunk_snaps)
    means = snaps.mean(axis=1)
    if n_paths == 1:
        return means, np.zeros_like(means)
    return means, snaps.std(axis=1, ddof=1) / np.sqrt(n_paths)
