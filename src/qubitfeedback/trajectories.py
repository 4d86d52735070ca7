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
``SeedSequence((seed, i))``, so results are independent of chunking, thread
count, and evaluation order, and two batches with the same seed see
identical noise (common random numbers).  ``simulate`` is path 0 of its
seed.  Each path's noise is drawn in blocks of ``NOISE_BLOCK`` = 256 steps
into one reused buffer, so the engine's memory is about
chunk_size * 256 * 8 bytes per chunk in flight, whatever the horizon.
Block-wise draws are the same numbers as one draw over the horizon, so
fixed-seed results are unchanged bit for bit by the blocking.

Validation happens at the API boundary: ``simulate``, ``run_batch`` and
``ensemble_means`` check x0, dt and ball_tol once; the policy's output is
checked for shape and finiteness on every step, and the state for
finiteness at the end of every noise block.  The step kernels themselves
do no checking.
"""

from __future__ import annotations

import dataclasses
import io
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .filters import (
    BALL_TOL,
    GROUND_STATE,
    MAX_BALL_TOL,
    AngleState,
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
MODELS = (DIFFUSIVE, COUNTING, ANGLE)

QUBIT_CSV_HEADER = "t,px,py,pz,u_plus,u_minus,dW_or_dN,dY,running_cost"
ANGLE_CSV_HEADER = "t,theta,B,dW,running_cost"


def wrap_angle(theta):
    """Wrap angles into [-pi, pi)."""
    return np.mod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


# ---------------------------------------------------------------------------
# policies: callables (t, state) -> control, vectorized over leading axes;
# the engine requires one control per path: shape (n,) for the angle model,
# (n, 2) for the qubit models


def zero_policy(model: str):
    """No actuation; running cost is identically zero."""
    _check_model(model)
    if model == ANGLE:
        return lambda t, state: np.zeros(np.shape(state))
    return lambda t, state: np.zeros(np.shape(state)[:-1] + (2,))


def constant_policy(model: str, value):
    """Hold a fixed control: (u_plus, u_minus) for qubit models, B for angle."""
    _check_model(model)
    if model == ANGLE:
        value = float(value)
        return lambda t, state: np.full(np.shape(state), value)
    value = np.asarray(value, dtype=float)
    if value.shape != (2,):
        raise ValueError("qubit models need a (u_plus, u_minus) pair")
    return lambda t, state: np.broadcast_to(value, np.shape(state)[:-1] + (2,)).copy()


def lq_policy(params: ModelParams):
    """Closed-form optimal feedback for the angle model."""
    T = params.horizon_T
    return lambda t, state: lq.optimal_B(t, state, T)


def _check_model(model: str) -> None:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")


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


def sample_jump(p, dt, rng: np.random.Generator, params: ModelParams):
    """Bernoulli thinning: True where a detection occurs during dt."""
    lam = jump_intensity(p, params)
    prob = lam * dt
    if np.any(prob >= 1.0):
        raise ValueError(
            f"dt * intensity reaches {np.max(prob)}; decrease dt below "
            f"{1.0 / max(float(np.max(lam)), 1e-300)}"
        )
    return rng.random(np.shape(prob)) < prob


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
        if self.model == ANGLE:
            fh.write(ANGLE_CSV_HEADER + "\n")
            for k in range(n + 1):
                step = (
                    (self.controls[k], self.increments[k]) if k < n else (0.0, 0.0)
                )
                fh.write(
                    _row(self.times[k], self.states[k], *step, self.running_cost[k])
                )
        else:
            fh.write(QUBIT_CSV_HEADER + "\n")
            for k in range(n + 1):
                if k < n:
                    step = (
                        self.controls[k, 0],
                        self.controls[k, 1],
                        self.increments[k],
                        self.observations[k],
                    )
                else:
                    step = (0.0, 0.0, 0.0, 0.0)
                fh.write(
                    _row(
                        self.times[k],
                        self.states[k, 0],
                        self.states[k, 1],
                        self.states[k, 2],
                        *step,
                        self.running_cost[k],
                    )
                )


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
        mean = float(costs.mean())
        if n == 1:
            # sample std is undefined for one path; report 0 by convention
            std = 0.0
        else:
            std = float(costs.std(ddof=1))
        return cls(
            n=n,
            mean=mean,
            std=std,
            stderr=std / np.sqrt(n),
            minimum=float(costs.min()),
            maximum=float(costs.max()),
        )

    def merge(self, other: "CostStatistics") -> "CostStatistics":
        """Combine two disjoint batches (parallel variance formula)."""
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * other.n / n
        m2 = (
            self.std**2 * max(self.n - 1, 0)
            + other.std**2 * max(other.n - 1, 0)
            + delta**2 * self.n * other.n / n
        )
        std = float(np.sqrt(m2 / (n - 1))) if n > 1 else 0.0
        return CostStatistics(
            n=n,
            mean=mean,
            std=std,
            stderr=std / np.sqrt(n),
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )


# ---------------------------------------------------------------------------
# the engine


# noise is drawn per path in blocks of this many steps, so a chunk's noise
# buffer holds chunk * NOISE_BLOCK doubles whatever the horizon
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
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n = int(round(params.horizon_T / dt))
    if n < 1 or abs(n * dt - params.horizon_T) > 1e-9 * params.horizon_T:
        raise ValueError(
            f"dt={dt!r} does not divide the horizon T={params.horizon_T!r}"
        )
    return n


def _validated_start(model: str, x0, params: ModelParams, dt: float, ball_tol: float):
    """Check a run's inputs once; return (n_steps, initial state of one path)."""
    _check_model(model)
    n_steps = _n_steps(params, dt)
    if not 0.0 <= ball_tol <= MAX_BALL_TOL:
        raise ValueError(f"ball_tol must lie in [0, {MAX_BALL_TOL}], got {ball_tol!r}")
    if model == COUNTING and dt * params.kappa_s_sq >= 1.0:
        raise ValueError(
            "dt * max jump intensity >= 1; Bernoulli thinning needs a "
            "smaller step"
        )
    if model == ANGLE:
        theta0 = x0.theta if isinstance(x0, AngleState) else float(x0)
        if not np.isfinite(theta0):
            raise ValueError("initial angle must be finite")
        return n_steps, wrap_angle(theta0)
    p0 = np.asarray(x0, dtype=float)
    if p0.shape != (3,):
        raise ValueError("qubit models need a length-3 initial Bloch vector")
    if not np.all(np.isfinite(p0)):
        raise ValueError("initial Bloch vector must be finite")
    if np.linalg.norm(p0) > 1.0 + BALL_TOL:
        raise ValueError("initial state outside the unit ball")
    return n_steps, p0


def _checked_control(u, shape) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != shape:
        raise ValueError(f"policy returned shape {u.shape}, expected {shape}")
    if not np.isfinite(u).all():
        raise ValueError("policy returned non-finite controls")
    return u


def _simulate_paths(
    model, policy, start, n_steps, params, dt, rng_list, ball_tol, record,
    checkpoint_idx=None,
):
    """Advance len(rng_list) paths in lockstep; optionally record history.

    ``start`` and the other inputs come from `_validated_start`.  Qubit
    states are kept as a (3, n) array; the policy and the step kernels see
    its (n, 3) transpose.  ``checkpoint_idx`` (sorted time-node indices)
    requests state snapshots without recording full histories.
    """
    n_paths = len(rng_list)
    if model == ANGLE:
        state = np.full(n_paths, start)
        ctrl_shape = (n_paths,)
    else:
        state = np.repeat(start[:, None], n_paths, axis=1)
        ctrl_shape = (n_paths, 2)
    cost = np.zeros(n_paths)

    if checkpoint_idx is not None:
        snaps = np.empty((len(checkpoint_idx),) + state.T.shape)
        snap_at = {int(node): j for j, node in enumerate(checkpoint_idx)}
        if 0 in snap_at:
            snaps[snap_at[0]] = state.T

    if record:
        states = np.empty((n_steps + 1,) + state.T.shape)
        states[0] = state.T
        controls = np.empty((n_steps,) + ctrl_shape)
        increments = np.empty((n_steps, n_paths))
        observations = None if model == ANGLE else np.empty((n_steps, n_paths))
        running = np.zeros((n_steps + 1, n_paths))

    gen = np.random.Generator
    draw = gen.random if model == COUNTING else gen.standard_normal
    # row i holds path i's next block of draws: the same numbers, in the
    # same order, as one draw of n_steps from its generator
    draws = np.empty((n_paths, min(NOISE_BLOCK, n_steps)))
    sqrt_dt = np.sqrt(dt)

    for block_start in range(0, n_steps, NOISE_BLOCK):
        block_len = min(NOISE_BLOCK, n_steps - block_start)
        for row, r in zip(draws, rng_list):
            draw(r, out=row[:block_len])
        for j in range(block_len):
            k = block_start + j
            view = state.T
            u = _checked_control(policy(k * dt, view), ctrl_shape)
            if model == ANGLE:
                cost += u * u * dt
                dW = draws[:, j] * sqrt_dt
                new_state = step_angle(view, u, dt, dW, params)
                inc = dW
            elif model == DIFFUSIVE:
                u_plus, u_minus = u[:, 0], u[:, 1]
                cost += (u_plus * u_plus + u_minus * u_minus) * dt
                dW = draws[:, j] * sqrt_dt
                if record:
                    observations[k] = observation_drift(view, params) * dt + dW
                new_state = step_diffusive(view, u, dt, dW, params, ball_tol)
                inc = dW
            else:
                u_plus, u_minus = u[:, 0], u[:, 1]
                cost += (u_plus * u_plus + u_minus * u_minus) * dt
                lam = _jump_intensity_z(state[2], params.kappa_s_sq)
                jumped = draws[:, j] < lam * dt
                inc = jumped.astype(float)
                if record:
                    observations[k] = inc
                new_state = step_counting(view, u, dt, jumped, params, ball_tol)
            if record:
                controls[k] = u
                increments[k] = inc
                running[k + 1] = cost
                states[k + 1] = new_state
            state = new_state.T
            if checkpoint_idx is not None and (k + 1) in snap_at:
                snaps[snap_at[k + 1]] = new_state
        if not np.isfinite(state).all():
            raise ValueError(
                f"state became non-finite before t = {(block_start + block_len) * dt!r}"
            )

    if model == ANGLE:
        terminal = wrap_angle(state) ** 2
    else:
        terminal = 1.0 - state[2]
    total = cost + terminal

    out = {"costs": total, "terminal": terminal}
    if checkpoint_idx is not None:
        out["snapshots"] = snaps
    if record:
        out.update(
            times=np.arange(n_steps + 1) * dt,
            states=states,
            controls=controls,
            increments=increments,
            observations=observations,
            running_full=running,
        )
    return out


def _run_chunks(n_paths: int, chunk_size: int, threads, seed, simulate_chunk):
    """Apply ``simulate_chunk(rngs)`` to consecutive chunks of paths.

    Returns an iterable of (start, stop, result) in chunk order; with
    ``threads`` > 1 the chunks run on a thread pool.  Path i always gets
    the substream of (seed, i), so results do not depend on the split.
    """

    def work(start: int):
        stop = min(start + chunk_size, n_paths)
        return start, stop, simulate_chunk(_path_rngs(seed, range(start, stop)))

    starts = range(0, n_paths, chunk_size)
    if threads is None or threads <= 1 or len(starts) == 1:
        return map(work, starts)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, starts))


def simulate(
    model: str,
    policy,
    x0,
    params: ModelParams,
    dt: float,
    seed: int | None = None,
    ball_tol: float = BALL_TOL,
) -> Trajectory:
    """Simulate one path and return its full record.

    Deterministic given (model, policy, x0, params, dt, seed); the noise
    stream is the path-0 substream of ``seed``, so the realized cost equals
    the first per-path cost of ``run_batch`` with the same seed.
    """
    n_steps, start = _validated_start(model, x0, params, dt, ball_tol)
    rngs = _path_rngs(seed, [0])
    res = _simulate_paths(
        model, policy, start, n_steps, params, dt, rngs, ball_tol, record=True
    )
    return Trajectory(
        model=model,
        dt=dt,
        times=res["times"],
        states=res["states"][:, 0],
        controls=res["controls"][:, 0],
        increments=res["increments"][:, 0],
        observations=None if model == ANGLE else res["observations"][:, 0],
        running_cost=res["running_full"][:, 0],
        terminal_cost=float(res["terminal"][0]),
        total_cost=float(res["costs"][0]),
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
    threads: int | None = None,
    chunk_size: int = 4096,
    ball_tol: float = BALL_TOL,
    return_costs: bool = False,
):
    """Monte Carlo over n_paths independent trajectories.

    Paths are advanced in vectorized chunks; path i always consumes the
    substream ``SeedSequence((seed, i))``, so the estimate does not depend
    on chunk size, thread count, or completion order.  Returns
    CostStatistics, or (CostStatistics, costs) with ``return_costs``.
    """
    n_steps, start = _validated_start(model, x0, params, dt, ball_tol)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")

    def chunk_costs(rngs):
        return _simulate_paths(
            model, policy, start, n_steps, params, dt, rngs, ball_tol, record=False
        )["costs"]

    costs = np.empty(n_paths)
    for lo, hi, chunk in _run_chunks(n_paths, chunk_size, threads, seed, chunk_costs):
        costs[lo:hi] = chunk

    stats = CostStatistics.from_costs(costs)
    if return_costs:
        return stats, costs
    return stats


def ensemble_means(
    model: str,
    policy,
    x0,
    params: ModelParams,
    dt: float,
    n_paths: int,
    times,
    seed: int | None = None,
    threads: int | None = None,
    chunk_size: int = 4096,
    ball_tol: float = BALL_TOL,
):
    """Monte Carlo mean state at the requested times.

    Useful for checking the unraveling against the deterministic master
    equation: the ensemble average of either conditional model follows the
    Lindblad flow.  Each requested time must sit on the step grid.  Returns
    ``(means, stderrs)`` with shape (len(times), 3) for the qubit models and
    (len(times),) for the angle model.  Same per-path substreams as
    ``run_batch``: results are independent of chunking and threading.
    """
    n_steps, start = _validated_start(model, x0, params, dt, ball_tol)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")

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
    order = np.argsort(idx)
    sorted_idx = idx[order]

    state_dim = () if model == ANGLE else (3,)
    snaps = np.empty((len(times), n_paths) + state_dim)

    def chunk_snaps(rngs):
        return _simulate_paths(
            model, policy, start, n_steps, params, dt, rngs, ball_tol,
            record=False, checkpoint_idx=sorted_idx,
        )["snapshots"]

    for lo, hi, chunk in _run_chunks(n_paths, chunk_size, threads, seed, chunk_snaps):
        snaps[order, lo:hi] = chunk

    means = snaps.mean(axis=1)
    if n_paths == 1:
        stderrs = np.zeros_like(means)
    else:
        stderrs = snaps.std(axis=1, ddof=1) / np.sqrt(n_paths)
    return means, stderrs
