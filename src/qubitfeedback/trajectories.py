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
noise (common random numbers).  ``run_batches``, which the CLI's
``compare`` uses, draws each noise block once and feeds it to every
policy; each policy gets the result its own batch would give.
``simulate`` is path 0 of its seed.  Paths run serially in chunks of
``CHUNK_PATHS`` = 4096; each path's noise is drawn in blocks of
``NOISE_BLOCK`` = 256 steps into one reused buffer, so the engine's noise
memory is about 4096 * 256 * 8 bytes whatever the horizon.  Block-wise
draws are the same numbers as one draw over the horizon, so fixed-seed
results are unchanged bit for bit by the blocking.

What differs between the models is data in one frozen `ModelRecord` per
model (`MODEL_RECORDS`): the CLI and ``.vgrid`` id, state and control
shapes, noise kind, how one column of noise becomes a step (``advance``)
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


def wrap_angle(theta):
    """Wrap angles into [-pi, pi)."""
    return np.mod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


# ---------------------------------------------------------------------------
# single Euler steps


# The qubit kernels work on components, so a state handed in as the (n, 3)
# transpose of a (3, n) array reads contiguous rows, and they return that
# same layout.  They do no checking (see the module docstring).


def _projected(components, ball_tol: float) -> np.ndarray:
    """Stack new components, project them into the ball, return (..., 3).

    The components share one shape: each is built from all of the step's
    inputs.
    """
    xyz = np.stack(list(components))
    _project_xyz(xyz, ball_tol)
    return xyz.transpose(*range(1, xyz.ndim), 0)


def step_diffusive(p, u, dt, dW, params: ModelParams, ball_tol: float = BALL_TOL):
    """One Euler-Maruyama step of the homodyne filter, then ball projection.

    ``dW`` is the Wiener increment over the step (scalar or batch-shaped).
    Inputs are not validated; see the engine's boundary checks.
    """
    xyz = _xyz(p)
    drift = _diffusive_drift_xyz(*xyz, *_xyz(u))
    sigma = _diffusive_diffusion_xyz(*xyz, params.kappa_s)
    dW = np.asarray(dW, dtype=float)
    return _projected(
        (c + d * dt + s * dW for c, d, s in zip(xyz, drift, sigma)), ball_tol
    )


def step_counting(p, u, dt, jumped, params: ModelParams, ball_tol: float = BALL_TOL):
    """One step of the counting filter.

    The compensated drift is applied first; paths flagged in ``jumped``
    are then reset to the ground state, so a jump lands exactly on
    ``jump_target()`` regardless of dt.  Inputs are not validated.
    """
    xyz = _xyz(p)
    lam = _jump_intensity_z(xyz[2], params.kappa_s_sq)
    drift = _counting_drift_xyz(*xyz, *_xyz(u), lam)
    jumped = np.asarray(jumped, dtype=bool)
    return _projected(
        (np.where(jumped, g, c + d * dt) for c, d, g in zip(xyz, drift, GROUND_STATE)),
        ball_tol,
    )


def step_angle(theta, B, dt, dW, params: ModelParams):
    """One Euler step of the phase angle, wrapped into [-pi, pi)."""
    theta = np.asarray(theta, dtype=float)
    B = np.asarray(B, dtype=float)
    dW = np.asarray(dW, dtype=float)
    return wrap_angle(theta + 2.0 * B * dt + 2.0 * params.alpha * dW)


def _thinned(pz, uniforms, dt, params: ModelParams):
    """Bernoulli thinning: True where a uniform draw falls below the pre-step
    intensity times dt.  The engine's counting step and `sample_jump` both
    flag their detections here."""
    return uniforms < _jump_intensity_z(pz, params.kappa_s_sq) * dt


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
    pz = np.asarray(p, dtype=float)[..., 2]
    return _thinned(pz, rng.random(np.shape(prob)), dt, params)


# ---------------------------------------------------------------------------
# the per-model records


@dataclasses.dataclass(frozen=True)
class ModelRecord:
    """What distinguishes one model, as data.

    ``model_id`` is the public name on the command line and in ``.vgrid``
    headers.  Shapes are per path (``()`` for the scalar angle model).
    ``noise`` names the ``numpy.random.Generator`` method drawing each
    step's noise.  ``advance(state, u, dt, draws, params)`` turns one
    column of those draws into the step's increment (the Wiener increment
    dW, or the 0/1 jump indicator) and returns ``(new_state, increment)``.
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
    advance: Callable
    observe: Callable
    csv_header: str
    bounds: tuple[tuple[float, float], ...]
    periodic: bool
    terminal_cost: Callable[[np.ndarray], np.ndarray]

    @property
    def n_controls(self) -> int:
        return math.prod(self.control_shape)


# The kernels are named inside these bodies, so each step reads the
# module's current `step_*` function: a kernel wrapped by name (as the
# benchmark's tracer does) is the one that runs.


def _advance_diffusive(p, u, dt, draws, params):
    dW = draws * np.sqrt(dt)
    return step_diffusive(p, u, dt, dW, params), dW


def _advance_counting(p, u, dt, draws, params):
    jumped = _thinned(p[..., 2], draws, dt, params)
    return step_counting(p, u, dt, jumped, params), jumped.astype(float)


def _advance_angle(theta, B, dt, draws, params):
    dW = draws * np.sqrt(dt)
    return step_angle(theta, B, dt, dW, params), dW


_QUBIT = dict(
    state_shape=(3,), control_shape=(2,),
    csv_header="t,px,py,pz,u_plus,u_minus,dW_or_dN,dY,running_cost",
    bounds=((-1.0, 1.0),) * 3, periodic=False, terminal_cost=lambda p: 1.0 - p[..., 2],
)
MODEL_RECORDS = {
    DIFFUSIVE: ModelRecord(
        "diffusive-qubit", noise="standard_normal", advance=_advance_diffusive,
        observe=lambda p, dW, dt, params: observation_drift(p, params) * dt + dW, **_QUBIT,
    ),
    COUNTING: ModelRecord(
        "counting-qubit", noise="random", advance=_advance_counting,
        observe=lambda p, jumps, dt, params: jumps.copy(), **_QUBIT,
    ),
    ANGLE: ModelRecord(
        "angle-lq", state_shape=(), control_shape=(), noise="standard_normal",
        advance=_advance_angle, observe=lambda *_: None,
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
# policies: callables (t, state) -> control, vectorized over leading axes;
# the engine requires one control per path: shape (n,) for the angle model,
# (n, 2) for the qubit models


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
# path in blocks of NOISE_BLOCK steps, so a chunk's noise buffer holds
# CHUNK_PATHS * NOISE_BLOCK doubles whatever the horizon
CHUNK_PATHS = 4096
NOISE_BLOCK = 256


def _path_rngs(seed, indices) -> list[np.random.Generator]:
    if seed is None:
        root = np.random.SeedSequence()
        children = root.spawn(len(indices))
    else:
        children = (np.random.SeedSequence((int(seed), int(i))) for i in indices)
    # what default_rng builds from a SeedSequence, minus its type dispatch
    return [np.random.Generator(np.random.PCG64(child)) for child in children]


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
    if seed is not None and not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed!r}")
    if model == COUNTING and dt * params.kappa_s_sq >= 1.0:
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


def _effort(u: np.ndarray) -> np.ndarray:
    """|u|^2 per path, summed over the control components column by column."""
    squares = (u * u).reshape(len(u), -1).T
    return sum(squares[1:], squares[0])


def _simulate_paths(model, policies, start, n_steps, params, dt, rngs, watch=None):
    """Advance len(rngs) paths in lockstep under each policy; return the
    per-path total costs, one row per policy.  Each noise block is drawn
    once for all policies.

    ``start`` and the other inputs come from `_validated_start`.  Qubit
    states are kept as a (3, n) array per policy; the policy and the
    model's ``advance`` see its (n, 3) transpose.  ``watch(k, i, u,
    increment, state_after)``, when given, sees step k of policy i.
    """
    rec = MODEL_RECORDS[model]
    n_paths = len(rngs)
    ctrl_shape = (n_paths,) + rec.control_shape
    states = [np.repeat(np.asarray(start)[..., None], n_paths, axis=-1) for _ in policies]
    costs = np.zeros((len(policies), n_paths))
    draw = getattr(np.random.Generator, rec.noise)
    # row i holds path i's next block of draws: the same numbers, in the
    # same order, as one draw of n_steps from its generator
    draws = np.empty((n_paths, min(NOISE_BLOCK, n_steps)))

    for block_start in range(0, n_steps, NOISE_BLOCK):
        block_len = min(NOISE_BLOCK, n_steps - block_start)
        for row, r in zip(draws, rngs):
            draw(r, out=row[:block_len])
        for j in range(block_len):
            k = block_start + j
            for i, policy in enumerate(policies):
                view = states[i].T
                u = _checked_control(policy(k * dt, view), ctrl_shape)
                costs[i] += _effort(u) * dt
                new_state, increment = rec.advance(view, u, dt, draws[:, j], params)
                if watch is not None:
                    watch(k, i, u, increment, new_state)
                states[i] = new_state.T
        if not all(np.isfinite(state).all() for state in states):
            raise ValueError(
                f"state became non-finite before t = {(block_start + block_len) * dt!r}"
            )

    for cost, state in zip(costs, states):
        cost += rec.terminal_cost(state.T)
    return costs


def _run_chunks(seed, out: np.ndarray, simulate_chunk) -> np.ndarray:
    """Call ``simulate_chunk(rngs, out[:, lo:hi])`` per chunk of paths; return out.

    Axis 1 of ``out`` runs over the paths.  Chunks of ``CHUNK_PATHS``
    paths run one after another.  Path i always gets the substream of
    (seed, i), so results do not depend on the split.
    """
    n_paths = out.shape[1]
    for lo in range(0, n_paths, CHUNK_PATHS):
        hi = min(lo + CHUNK_PATHS, n_paths)
        simulate_chunk(_path_rngs(seed, range(lo, hi)), out[:, lo:hi])
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

    (total,) = _simulate_paths(model, [policy], start, n_steps, params, dt,
                               _path_rngs(seed, [0]), watch)
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
        total_cost=float(total[0]),
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
    (CostStatistics, costs) with ``return_costs``, per policy.
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
    idx = np.rint(times / dt).astype(int)
    if (
        np.any(idx < 0)
        or np.any(idx > n_steps)
        or np.any(np.abs(idx * dt - times) > 1e-9 * max(params.horizon_T, 1.0))
    ):
        raise ValueError("every checkpoint must lie on the time grid in [0, T]")
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
