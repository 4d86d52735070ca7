"""Tests for the Euler-Maruyama trajectory engine."""

import hashlib
import io
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qubitfeedback import bellman as bm
from qubitfeedback import lq
from qubitfeedback import trajectories as tj
from qubitfeedback.filters import (
    GROUND_STATE,
    ModelParams,
    bloch_to_density,
    counting_drift,
    diffusive_diffusion,
    diffusive_drift,
    lindblad,
    project_to_ball,
)


QUBIT = ModelParams(kappa_s_sq=1.0, kappa_f_sq=0.0, horizon_T=1.0)
MIXED = ModelParams(kappa_s_sq=0.5, horizon_T=1.0)
ANGLE = ModelParams(alpha=0.5, horizon_T=1.0)


def test_wrap_angle():
    np.testing.assert_allclose(tj.wrap_angle(0.3), 0.3)
    np.testing.assert_allclose(tj.wrap_angle(np.pi), -np.pi)
    np.testing.assert_allclose(tj.wrap_angle(-np.pi), -np.pi)
    np.testing.assert_allclose(tj.wrap_angle(3.0 * np.pi), -np.pi)
    np.testing.assert_allclose(tj.wrap_angle(2.0 * np.pi + 0.1), 0.1, atol=1e-12)


# ---------------------------------------------------------------------------
# single steps


def test_step_diffusive_drift_only():
    p = tj.step_diffusive([0.0, 0.0, 1.0], [0.0, 0.0], 0.01, 0.0, QUBIT)
    np.testing.assert_allclose(p, [0.0, 0.0, 0.98], atol=1e-15)


def test_step_diffusive_with_noise_before_projection():
    # loose tolerance shows the raw Euler arithmetic
    p = tj.step_diffusive(
        [0.0, 0.0, 1.0], [0.0, 0.0], 0.01, 0.1, QUBIT, ball_tol=1e-2
    )
    np.testing.assert_allclose(p, [0.2, 0.0, 0.98], atol=1e-15)
    # default tolerance projects the same point back onto the sphere
    q = tj.step_diffusive([0.0, 0.0, 1.0], [0.0, 0.0], 0.01, 0.1, QUBIT)
    np.testing.assert_allclose(np.linalg.norm(q), 1.0)
    np.testing.assert_allclose(q, np.array([0.2, 0.0, 0.98]) / np.linalg.norm([0.2, 0.0, 0.98]))


def test_step_counting_jump_resets_exactly():
    p = tj.step_counting([0.3, -0.2, 0.5], [1.0, -1.0], 0.01, True, QUBIT)
    np.testing.assert_array_equal(p, GROUND_STATE)


def test_step_counting_no_jump():
    p = tj.step_counting(
        [1.0, 0.0, 0.0], [0.0, 0.0], 0.01, False, QUBIT, ball_tol=1e-3
    )
    np.testing.assert_allclose(p, [1.0, 0.0, -0.005], atol=1e-15)


def test_step_angle():
    assert tj.step_angle(0.0, 1.0, 0.1, 0.0, ANGLE) == pytest.approx(0.2)
    # wraps into [-pi, pi)
    assert tj.step_angle(3.1, 1.0, 0.1, 0.0, ANGLE) == pytest.approx(3.3 - 2 * np.pi)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _ball_states(rng, n, radius=1.0):
    p = rng.normal(size=(n, 3))
    return radius * p / np.linalg.norm(p, axis=-1, keepdims=True) * rng.uniform(0.2, 1.0, (n, 1))


# (p, u, noise, ball_tol) per case; the noise is dW for the homodyne kernel
# and the jump flags for the counting one.  Some of the "projected" states,
# which start on the sphere, leave the ball by more than BALL_TOL and are
# projected back; with ball_tol=inf none is.
_rng = np.random.default_rng(40)
_P, _U = _ball_states(_rng, 50), _rng.uniform(-2.0, 2.0, (50, 2))
_SPHERE = _P / np.linalg.norm(_P, axis=-1, keepdims=True)
_DW, _JUMPS = 0.3 * _rng.normal(size=50), _rng.random(50) < 0.5
KERNEL_CASES = {
    "batch": (_P, _U, _DW, _JUMPS, tj.BALL_TOL),
    "scalar_noise": (_P, _U, 0.2, False, tj.BALL_TOL),
    "control_broadcast": (_P, np.array([0.7, -0.4]), _DW, _JUMPS, tj.BALL_TOL),
    "single_state": (_P[0], _U[0], -0.3, True, tj.BALL_TOL),
    "single_state_batch_noise": (_P[1], _U[1], _DW, _JUMPS, tj.BALL_TOL),
    "projected": (_SPHERE, _U, _DW, _JUMPS, tj.BALL_TOL),
    "never_projected": (_SPHERE, _U, _DW, _JUMPS, np.inf),
}


def _kernel_reference(kernel, p, u, dt, noise, params, ball_tol):
    """The step through the checked public coefficient functions."""
    p, u = np.asarray(p, dtype=float), np.asarray(u, dtype=float)
    if kernel is tj.step_diffusive:
        new = p + diffusive_drift(p, u) * dt + diffusive_diffusion(p, params) * np.asarray(noise)[..., None]
    else:
        drifted = p + counting_drift(p, u, params) * dt
        new = np.where(np.asarray(noise)[..., None], GROUND_STATE, drifted)
    return project_to_ball(new, ball_tol)


@pytest.mark.parametrize("kernel", [tj.step_diffusive, tj.step_counting], ids=["diffusive", "counting"])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernels_give_the_same_bits_with_and_without_a_workspace(kernel, case):
    p, u, dW, jumps, ball_tol = KERNEL_CASES[case]
    noise = dW if kernel is tj.step_diffusive else jumps
    inputs = [np.array(p, copy=True), np.array(u, copy=True)]
    args = (p, u, 1e-2, noise, MIXED, ball_tol)
    alone = kernel(*args)
    shape = np.broadcast_shapes(np.shape(p)[:-1], np.shape(u)[:-1], np.shape(noise))
    out = np.moveaxis(np.empty((3,) + shape), 0, -1)
    work = np.full((3,) + shape, np.nan)
    # twice into the same buffers: the second step reads none of the first's leftovers
    for _ in range(2):
        got = kernel(*args, out, work)
        assert got is out
        assert np.array_equal(_bits(got), _bits(alone))
    assert np.array_equal(_bits(alone), _bits(_kernel_reference(kernel, *args)))
    assert all(np.array_equal(a, b) for a, b in zip(inputs, (p, u)))
    if kernel is tj.step_counting:
        lam = 0.5 * MIXED.kappa_s_sq * (1.0 + np.asarray(p)[..., 2])
        assert np.array_equal(_bits(kernel(*args, out, work, lam)), _bits(alone))
    moved = np.linalg.norm(kernel(p, u, 1e-2, noise, MIXED, np.inf), axis=-1) > 1.0 + tj.BALL_TOL
    if case == "projected":
        assert 0 < moved.sum() < moved.size
        np.testing.assert_allclose(np.linalg.norm(alone, axis=-1)[moved], 1.0)
    if case == "never_projected":
        assert moved.any()


def test_sample_jump_rejects_coarse_dt():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        tj.sample_jump([0.0, 0.0, 1.0], 1.5, rng, QUBIT)


def test_sample_jump_frequency():
    rng = np.random.default_rng(42)
    p = np.tile([0.0, 0.0, -0.998], (200_000, 1))  # intensity 1e-3
    dt = 1.0
    draws = tj.sample_jump(p, dt, rng, QUBIT)
    prob = 0.5 * (1.0 - 0.998)
    freq = draws.mean()
    band = 3.0 * np.sqrt(prob * (1.0 - prob) / draws.size)
    assert abs(freq - prob) <= band


def test_engine_flags_the_jumps_sample_jump_flags_on_the_same_uniforms():
    # a batch of states, one uniform each from one seed
    rng = np.random.default_rng(7)
    p = rng.uniform(-1.0, 1.0, (20_000, 3))
    p /= np.maximum(1.0, np.linalg.norm(p, axis=-1))[:, None]
    dt = 0.5
    _, engine = tj.MODEL_RECORDS[tj.COUNTING].advance(
        p, np.zeros((20_000, 2)), dt, np.random.default_rng(3).random(20_000), QUBIT)
    flags = tj.sample_jump(p, dt, np.random.default_rng(3), QUBIT)
    assert 1000 < flags.sum() < 19_000
    np.testing.assert_array_equal(engine, flags.astype(float))

    # a driven path replayed step by step from its own noise substream
    params = ModelParams(kappa_s_sq=1.0, horizon_T=10.0)
    traj = tj.simulate(tj.COUNTING, tj.constant_policy(tj.COUNTING, [2.0, 0.0]),
                       [0.0, 0.0, 1.0], params, 1e-2, seed=0)
    path_rng = np.random.default_rng(np.random.SeedSequence((0, 0)))
    flags = [tj.sample_jump(state, 1e-2, path_rng, params) for state in traj.states[:-1]]
    assert traj.increments.sum() >= 3
    np.testing.assert_array_equal(traj.increments, np.array(flags, dtype=float))


# ---------------------------------------------------------------------------
# whole trajectories


def test_simulate_is_deterministic():
    a = tj.simulate(tj.DIFFUSIVE, tj.zero_policy(tj.DIFFUSIVE), [1.0, 0.0, 0.0], MIXED, 0.01, seed=5)
    b = tj.simulate(tj.DIFFUSIVE, tj.zero_policy(tj.DIFFUSIVE), [1.0, 0.0, 0.0], MIXED, 0.01, seed=5)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert a.total_cost == b.total_cost


def test_ground_state_is_absorbing():
    for model in (tj.DIFFUSIVE, tj.COUNTING):
        traj = tj.simulate(model, tj.zero_policy(model), GROUND_STATE, QUBIT, 0.01, seed=1)
        assert np.all(traj.states == GROUND_STATE)
        assert traj.total_cost == pytest.approx(2.0)
        assert traj.terminal_cost == pytest.approx(2.0)


def test_angle_noise_free_origin_has_zero_cost():
    params = ModelParams(alpha=0.0, horizon_T=1.0)
    traj = tj.simulate(tj.ANGLE, tj.zero_policy(tj.ANGLE), 0.0, params, 0.01, seed=2)
    assert traj.total_cost == 0.0
    assert np.all(traj.states == 0.0)


def test_running_cost_left_endpoint_rule():
    # a constant control accrues exactly |u|^2 * T regardless of the path
    policy = tj.constant_policy(tj.DIFFUSIVE, (0.3, -0.4))
    traj = tj.simulate(tj.DIFFUSIVE, policy, [0.0, 0.0, 1.0], MIXED, 0.02, seed=3)
    assert traj.running_cost[-1] == pytest.approx(0.25 * 1.0)
    assert traj.total_cost == pytest.approx(0.25 + traj.terminal_cost)
    # and the first increment lands after one step
    assert traj.running_cost[1] == pytest.approx(0.25 * 0.02)


def test_dt_must_divide_horizon():
    with pytest.raises(ValueError):
        tj.simulate(tj.ANGLE, tj.zero_policy(tj.ANGLE), 0.0, ANGLE, 0.3, seed=0)
    with pytest.raises(ValueError):
        tj.run_batch(tj.ANGLE, tj.zero_policy(tj.ANGLE), 0.0, ANGLE, 0.3, 10, seed=0)


def test_counting_jumps_land_on_ground_state():
    # seed chosen so the path contains a jump (a single path misses one
    # with probability ~1/e at these parameters)
    traj = tj.simulate(
        tj.COUNTING, tj.zero_policy(tj.COUNTING), [0.0, 0.0, 1.0], QUBIT, 1e-2, seed=0
    )
    jumps = traj.increments == 1.0
    assert jumps.any(), "excited start at unit coupling should produce a jump"
    np.testing.assert_array_equal(
        traj.states[1:][jumps], np.tile(GROUND_STATE, (jumps.sum(), 1))
    )
    # observation column for the counting model is the jump indicator
    np.testing.assert_array_equal(traj.observations, traj.increments)


def test_diffusive_observation_increment():
    traj = tj.simulate(
        tj.DIFFUSIVE, tj.zero_policy(tj.DIFFUSIVE), [1.0, 0.0, 0.0], MIXED, 0.01, seed=7
    )
    kappa_s = np.sqrt(0.5)
    expected = kappa_s * traj.states[:-1, 0] * 0.01 + traj.increments
    np.testing.assert_allclose(traj.observations, expected, atol=1e-15)


# ---------------------------------------------------------------------------
# batches


# (policy, x0, params) per model, each with a nonzero running cost
PATH_ZERO = {
    tj.DIFFUSIVE: lambda: (lambda t, s: -0.5 * s[..., :2], [1.0, 0.0, 0.0], MIXED),
    tj.COUNTING: lambda: (tj.constant_policy(tj.COUNTING, (0.3, -0.2)), [0.3, 0.4, 0.5], MIXED),
    tj.ANGLE: lambda: (tj.lq_policy(ANGLE), 1.0, ANGLE),
}


@pytest.mark.parametrize("model", tj.MODELS)
def test_simulate_equals_batch_path_zero(model):
    policy, x0, params = PATH_ZERO[model]()
    stats, costs = tj.run_batch(model, policy, x0, params, 1e-2, 8, seed=9, return_costs=True)
    traj = tj.simulate(model, policy, x0, params, 1e-2, seed=9)
    assert traj.running_cost[-1] > 0.0
    assert traj.total_cost == costs[0]
    assert traj.running_cost[-1] + traj.terminal_cost == traj.total_cost
    assert stats.n == 8


@pytest.mark.parametrize("model, kernel", [(tj.DIFFUSIVE, "step_diffusive"),
                                           (tj.COUNTING, "step_counting"),
                                           (tj.ANGLE, "step_angle")])
def test_engine_calls_the_kernel_by_its_module_global_name(monkeypatch, model, kernel):
    calls = []
    original = getattr(tj, kernel)
    monkeypatch.setattr(tj, kernel, lambda *a: calls.append(1) or original(*a))
    policy, x0, params = PATH_ZERO[model]()
    tj.run_batch(model, policy, x0, params, 0.1, 3, seed=1)
    assert len(calls) == 10


def test_batch_is_chunk_invariant(monkeypatch):
    kw = dict(seed=13, return_costs=True)
    _, a = tj.run_batch(tj.DIFFUSIVE, tj.zero_policy(tj.DIFFUSIVE), [1, 0, 0], MIXED, 0.02, 30, **kw)
    monkeypatch.setattr(tj, "CHUNK_PATHS", 7)
    _, b = tj.run_batch(tj.DIFFUSIVE, tj.zero_policy(tj.DIFFUSIVE), [1, 0, 0], MIXED, 0.02, 30, **kw)
    np.testing.assert_array_equal(a, b)


# (policy, x0, params) per model with controls that move the state; 300
# steps are one noise block and 44 steps of another
CHUNKED = {
    tj.DIFFUSIVE: (lambda t, s: -0.5 * s[..., :2], [1.0, 0.0, 0.0],
                   ModelParams(kappa_s_sq=0.5, horizon_T=0.3)),
    tj.COUNTING: (tj.constant_policy(tj.COUNTING, (0.3, -0.2)), [0.0, 0.6, 0.8],
                  ModelParams(kappa_s_sq=1.0, horizon_T=0.3)),
    tj.ANGLE: (tj.lq_policy(ModelParams(alpha=0.5, horizon_T=0.3)), 1.0,
               ModelParams(alpha=0.5, horizon_T=0.3)),
}


@pytest.mark.parametrize("model", tj.MODELS)
def test_costs_do_not_depend_on_the_chunk_or_noise_tile(model, monkeypatch):
    policy, x0, params = CHUNKED[model]

    def costs():
        _, c = tj.run_batch(model, policy, x0, params, 1e-3, 300, seed=41, return_costs=True)
        return c

    whole = costs()  # one chunk of 300 paths: tiles of 128, 128 and 44
    assert 300 % tj.NOISE_BLOCK and 300 > tj.NOISE_BLOCK and tj.TILE_PATHS == 128
    for chunk in (7, 130):
        monkeypatch.setattr(tj, "CHUNK_PATHS", chunk)
        assert np.array_equal(_bits(costs()), _bits(whole))


def _stepwise_costs(model, policy, x0, params, dt, n_paths, seed):
    """Per-path costs from the public kernels, one allocating call per step,
    with each path's noise drawn over the whole horizon at once."""
    n_steps = round(params.horizon_T / dt)
    noise = np.array([getattr(np.random.default_rng(np.random.SeedSequence((seed, i))),
                              tj.MODEL_RECORDS[model].noise)(n_steps) for i in range(n_paths)])
    state, cost = np.tile(np.asarray(x0, dtype=float), (n_paths, 1)), np.zeros(n_paths)
    for k in range(n_steps):
        u = np.array(policy(k * dt, state))
        cost += tj._effort(u) * dt
        if model == tj.DIFFUSIVE:
            state = tj.step_diffusive(state, u, dt, noise[:, k] * np.sqrt(dt), params)
        else:
            jumped = noise[:, k] < tj.jump_intensity(state, params) * dt
            state = tj.step_counting(state, u, dt, jumped, params)
    return cost + (1.0 - state[:, 2])


@pytest.mark.parametrize("model", [tj.DIFFUSIVE, tj.COUNTING])
def test_a_policy_may_return_a_view_of_its_state(model, monkeypatch):
    # the engine writes each step into the policy's other buffer, so a
    # control that aliases the state it was computed from stays valid for
    # the step; two such policies share the noise and the scratch
    monkeypatch.setattr(tj, "CHUNK_PATHS", 7)
    policies = [lambda t, s: s[..., :2], lambda t, s: -s[..., 1::-1]]
    kw = dict(x0=[0.3, 0.4, 0.5], params=MIXED, dt=1e-2, n_paths=20, seed=43)
    together = tj.run_batches(model, policies, **kw, return_costs=True)
    for policy, (_, costs) in zip(policies, together):
        assert np.array_equal(_bits(costs), _bits(_stepwise_costs(model, policy, **kw)))
    assert not np.array_equal(together[0][1], together[1][1])


def test_common_random_numbers_share_noise():
    # same seed, different policies: angle paths see identical dW streams,
    # so a policy with no actuation reproduces the noise-only endpoint
    _, costs_zero = tj.run_batch(
        tj.ANGLE, tj.zero_policy(tj.ANGLE), 0.0, ANGLE, 0.01, 16, seed=21, return_costs=True
    )
    _, costs_zero2 = tj.run_batch(
        tj.ANGLE, tj.zero_policy(tj.ANGLE), 0.0, ANGLE, 0.01, 16, seed=21, return_costs=True
    )
    np.testing.assert_array_equal(costs_zero, costs_zero2)


def _counting_grid_policy(params):
    spec = bm.GridSpec(model=tj.COUNTING, n_nodes=7, n_steps=round(100 * params.horizon_T),
                       horizon_T=params.horizon_T, control_box=1.0)
    return bm.extract_policy(bm.solve_backward(spec, params))


# (policies, x0, params) per model; 300 or 600 steps cross noise-block
# boundaries, and about half of the counting paths jump, at times that
# differ between the policies
LOCKSTEP = {
    tj.DIFFUSIVE: lambda: (
        [tj.zero_policy(tj.DIFFUSIVE), tj.constant_policy(tj.DIFFUSIVE, (0.4, -0.3)),
         lambda t, s: -0.5 * s[..., :2]],
        [1.0, 0.0, 0.0], ModelParams(kappa_s_sq=0.5, horizon_T=0.3),
    ),
    tj.COUNTING: lambda: (
        [tj.zero_policy(tj.COUNTING), tj.constant_policy(tj.COUNTING, (0.3, -0.2)),
         _counting_grid_policy(ModelParams(kappa_s_sq=1.0, horizon_T=0.6))],
        [0.0, 0.6, 0.8], ModelParams(kappa_s_sq=1.0, horizon_T=0.6),
    ),
    tj.ANGLE: lambda: (
        [tj.zero_policy(tj.ANGLE), tj.constant_policy(tj.ANGLE, -0.4),
         tj.lq_policy(ModelParams(alpha=0.5, horizon_T=0.3))],
        1.0, ModelParams(alpha=0.5, horizon_T=0.3),
    ),
}


@pytest.mark.parametrize("model", sorted(LOCKSTEP))
def test_run_batches_equal_separate_run_batch_bit_for_bit(model, monkeypatch):
    # 20 paths in chunks of 7: three chunks, the last one short
    monkeypatch.setattr(tj, "CHUNK_PATHS", 7)
    policies, x0, params = LOCKSTEP[model]()
    kw = dict(x0=x0, params=params, dt=1e-3, n_paths=20, seed=31, return_costs=True)
    together = tj.run_batches(model, policies, **kw)
    assert len(together) == 3
    for policy, (stats, costs) in zip(policies, together):
        alone_stats, alone = tj.run_batch(model, policy, **kw)
        assert np.array_equal(costs.view(np.int64), alone.view(np.int64))
        assert stats == alone_stats
    # the arms really differ: no policy was run in place of another
    assert len({costs.tobytes() for _, costs in together}) == 3


def test_run_batches_without_seed_share_one_noise_draw(monkeypatch):
    monkeypatch.setattr(tj, "CHUNK_PATHS", 7)
    # homodyne noise moves every path, so equal costs mean equal noise
    zero = tj.zero_policy(tj.DIFFUSIVE)
    push = tj.constant_policy(tj.DIFFUSIVE, (0.5, 0.0))

    def unseeded():
        results = tj.run_batches(tj.DIFFUSIVE, [zero, push, zero], [1.0, 0.0, 0.0],
                                 MIXED, 0.01, 20, return_costs=True)
        return [costs for _, costs in results]

    first, pushed, again = unseeded()
    assert np.array_equal(first.view(np.int64), again.view(np.int64))
    assert not np.array_equal(first, pushed)
    # fresh entropy on every call
    assert not np.array_equal(first, unseeded()[0])


def test_lq_policy_monte_carlo_sanity():
    stats = tj.run_batch(tj.ANGLE, tj.lq_policy(ANGLE), 1.0, ANGLE, 1e-2, 4000, seed=17)
    target = lq.value(0.0, 1.0, 1.0, 0.5)
    # generous 5 sigma: the tight 3 sigma version lives in the acceptance suite
    assert abs(stats.mean - target) <= 5.0 * stats.stderr + 0.01


def test_cost_statistics_from_costs():
    costs = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    direct = tj.CostStatistics.from_costs(costs)
    assert direct.mean == pytest.approx(3.5)
    assert direct.std == pytest.approx(np.std(costs, ddof=1))
    assert direct.stderr == pytest.approx(direct.std / np.sqrt(6))
    assert (direct.minimum, direct.maximum) == (1.0, 6.0)


def test_cost_statistics_single_path_convention():
    stats = tj.CostStatistics.from_costs([2.5])
    assert stats.std == 0.0 and stats.stderr == 0.0


# ---------------------------------------------------------------------------
# CSV export


def test_qubit_csv_round_trip():
    traj = tj.simulate(
        tj.DIFFUSIVE, tj.constant_policy(tj.DIFFUSIVE, (0.1, 0.2)), [1, 0, 0], MIXED, 0.05, seed=23
    )
    buf = io.StringIO()
    traj.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == tj.MODEL_RECORDS[tj.DIFFUSIVE].csv_header
    assert len(lines) == 1 + len(traj.times)
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(data[:, 0], traj.times)
    np.testing.assert_array_equal(data[:, 1:4], traj.states)
    np.testing.assert_array_equal(data[:-1, 4:6], traj.controls)
    np.testing.assert_array_equal(data[:-1, 6], traj.increments)
    np.testing.assert_array_equal(data[:-1, 7], traj.observations)
    np.testing.assert_array_equal(data[:, 8], traj.running_cost)
    np.testing.assert_array_equal(data[-1, 4:8], 0.0)


def test_angle_csv_round_trip(tmp_path):
    traj = tj.simulate(tj.ANGLE, tj.lq_policy(ANGLE), 1.0, ANGLE, 0.25, seed=29)
    out = tmp_path / "angle.csv"
    traj.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == tj.MODEL_RECORDS[tj.ANGLE].csv_header
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    assert data.shape == (5, 5)
    np.testing.assert_array_equal(data[:, 1], traj.states)
    np.testing.assert_array_equal(data[:-1, 2], traj.controls)


# ---------------------------------------------------------------------------
# ensemble state means


def test_ensemble_means_fixed_point_exact():
    means, errs = tj.ensemble_means(
        tj.DIFFUSIVE, tj.zero_policy(tj.DIFFUSIVE), GROUND_STATE, QUBIT,
        0.1, 50, times=[0.0, 0.5, 1.0], seed=3,
    )
    np.testing.assert_array_equal(means, np.tile(GROUND_STATE, (3, 1)))
    np.testing.assert_array_equal(errs, 0.0)


def test_ensemble_means_matches_noise_off_euler():
    # zero control makes the diffusive drift affine, so the Euler ensemble
    # mean follows the noise-off Euler recursion exactly (up to MC error)
    dt, n = 0.01, 2000
    checkpoints = [0.25, 0.5, 1.0]
    means, errs = tj.ensemble_means(
        tj.DIFFUSIVE, tj.zero_policy(tj.DIFFUSIVE), [1.0, 0.0, 0.0], MIXED,
        dt, n, times=checkpoints, seed=17,
    )
    p = np.array([1.0, 0.0, 0.0])
    dead = []
    for k in range(round(1.0 / dt)):
        p = tj.step_diffusive(p, [0.0, 0.0], dt, 0.0, MIXED)
        if (k + 1) * dt in checkpoints:
            dead.append(p.copy())
    np.testing.assert_array_less(np.abs(means - dead), 3.0 * errs + 1e-12)


def _expm(a):
    # scaling and squaring: a Taylor series on a / 2^s, with |a| / 2^s <= 1/2
    s = max(0, int(np.ceil(np.log2(max(np.abs(a).sum(axis=1).max(), 1e-300) / 0.5))))
    b = a / 2.0**s
    out, term = np.eye(len(a)), np.eye(len(a))
    for k in range(1, 20):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _lindblad_bloch_flow(u, params):
    # the master equation is affine in the Bloch vector: dp/dt = A p + c, read
    # off `lindblad` at p = 0 and the unit vectors, as the augmented 4 x 4
    # generator of (p, 1)
    def bloch_rate(p):
        gen = lindblad(bloch_to_density(p), u, params)
        return np.array([2.0 * gen[1, 0].real, 2.0 * gen[1, 0].imag,
                         (gen[0, 0] - gen[1, 1]).real])

    c = bloch_rate(np.zeros(3))
    gen = np.zeros((4, 4))
    gen[:3, 3] = c
    for i, e in enumerate(np.eye(3)):
        gen[:3, i] = bloch_rate(e) - c
    return gen


@pytest.mark.parametrize("model", [tj.DIFFUSIVE, tj.COUNTING])
def test_ensemble_means_follow_the_lindblad_flow_under_a_constant_control(model):
    # criterion 7 checks the unravelings against the master equation at zero
    # control only; a control that acts in one picture and not the other,
    # or acts differently, fails here
    u = np.array([0.5, -0.3])
    params = ModelParams(kappa_s_sq=0.5, horizon_T=2.0)
    x0 = np.array([1.0, 0.0, 0.0])
    times = np.linspace(0.2, 2.0, 10)
    gen = _lindblad_bloch_flow(u, params)
    exact = np.stack([(_expm(gen * t) @ np.append(x0, 1.0))[:3] for t in times])
    means, errs = tj.ensemble_means(model, tj.constant_policy(model, u), x0, params, 1e-3,
                                    10_000, times, seed=0)
    assert (errs > 0.0).all()
    assert np.max(np.abs(means - exact) / errs) < 3.0


def test_ensemble_means_chunk_invariant(monkeypatch):
    kw = dict(times=[0.0, 0.4, 1.0], seed=9)
    a = tj.ensemble_means(
        tj.COUNTING, tj.zero_policy(tj.COUNTING), [1, 0, 0], QUBIT, 0.02, 300, **kw
    )
    monkeypatch.setattr(tj, "CHUNK_PATHS", 7)
    b = tj.ensemble_means(
        tj.COUNTING, tj.zero_policy(tj.COUNTING), [1, 0, 0], QUBIT, 0.02, 300, **kw
    )
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_ensemble_means_checkpoint_order_is_input_order():
    fwd, _ = tj.ensemble_means(
        tj.ANGLE, tj.zero_policy(tj.ANGLE), 1.0, ANGLE, 0.1, 40,
        times=[0.0, 1.0], seed=5,
    )
    rev, _ = tj.ensemble_means(
        tj.ANGLE, tj.zero_policy(tj.ANGLE), 1.0, ANGLE, 0.1, 40,
        times=[1.0, 0.0], seed=5,
    )
    np.testing.assert_array_equal(fwd, rev[::-1])
    assert fwd[0] == 1.0  # theta0 snapshot


def test_ensemble_means_rejects_off_grid_and_duplicates():
    with pytest.raises(ValueError):
        tj.ensemble_means(
            tj.ANGLE, tj.zero_policy(tj.ANGLE), 1.0, ANGLE, 0.1, 4, times=[0.05]
        )
    with pytest.raises(ValueError):
        tj.ensemble_means(
            tj.ANGLE, tj.zero_policy(tj.ANGLE), 1.0, ANGLE, 0.1, 4, times=[1.1]
        )
    with pytest.raises(ValueError):
        tj.ensemble_means(
            tj.ANGLE, tj.zero_policy(tj.ANGLE), 1.0, ANGLE, 0.1, 4,
            times=[0.5, 0.5],
        )
    # refused before the times are cast to step indices
    with pytest.raises(ValueError, match="time grid"):
        tj.ensemble_means(
            tj.ANGLE, tj.zero_policy(tj.ANGLE), 1.0, ANGLE, 0.1, 4, times=[0.5, np.nan]
        )


# ---------------------------------------------------------------------------
# fixed-seed outputs, noise streaming and boundary validation


# sha256 of run_batch's per-path costs (little-endian float64), recorded
# from the engine that drew each chunk's whole noise buffer up front; the
# block-streamed engine must reproduce them bit for bit.  ``chunk_paths``,
# where given, is set as tj.CHUNK_PATHS so the run crosses chunk boundaries.
PINNED_COSTS = {
    "diffusive_zero": (
        dict(model=tj.DIFFUSIVE, policy=tj.zero_policy(tj.DIFFUSIVE), x0=[1.0, 0.0, 0.0],
             params=ModelParams(kappa_s_sq=0.5, horizon_T=0.512), dt=1e-3,
             n_paths=48, seed=2024),
        "f8ff91ef5846dac11757374e6419f7300e83c38341e2a79b5cb6381d60d040a1",
    ),
    # about 8 % of these path-steps leave the ball and are projected back
    "diffusive_projection": (
        dict(model=tj.DIFFUSIVE, policy=tj.constant_policy(tj.DIFFUSIVE, (0.5, 0.0)),
             x0=[1.0, 0.0, 0.0], params=ModelParams(kappa_s_sq=1.0, horizon_T=2.56),
             dt=1e-2, n_paths=64, seed=7, chunk_paths=24),
        "a19f7bf341ca5ad09afd736c838018df1db43718fbc1ae68c81a023174853e04",
    ),
    "counting_constant": (
        dict(model=tj.COUNTING, policy=tj.constant_policy(tj.COUNTING, (0.3, -0.2)),
             x0=[0.0, 0.0, 1.0], params=ModelParams(kappa_s_sq=0.8, horizon_T=0.6),
             dt=1e-3, n_paths=40, seed=11),
        "0b3e3057a9a0866d8ba15e10a67d162ccf0c2712810b8775277601fc7d40cef6",
    ),
    # 300 steps: one full noise block and a partial one
    "partial_block": (
        dict(model=tj.DIFFUSIVE, policy=tj.constant_policy(tj.DIFFUSIVE, (0.2, 0.1)),
             x0=[0.0, 0.6, 0.8], params=ModelParams(kappa_s_sq=0.5, horizon_T=0.3),
             dt=1e-3, n_paths=30, seed=3, chunk_paths=8),
        "75d7be13f4227505250acc28c0cb54ed97e3ae3f495ca29bdf7c230d943f83cb",
    ),
    "angle_lq": (
        dict(model=tj.ANGLE, policy=tj.lq_policy(ANGLE), x0=1.0, params=ANGLE,
             dt=1e-2, n_paths=32, seed=5),
        "41ad346932bfd71c7a1046cd13ad38ff4cf277d6ccdb004e9beb1394ff4ec023",
    ),
}


def _with_chunk(monkeypatch, kwargs):
    """``kwargs`` minus ``chunk_paths``, which is set as tj.CHUNK_PATHS."""
    kwargs = dict(kwargs)
    monkeypatch.setattr(tj, "CHUNK_PATHS", kwargs.pop("chunk_paths", tj.CHUNK_PATHS))
    return kwargs


@pytest.mark.parametrize("case", sorted(PINNED_COSTS))
def test_run_batch_costs_are_pinned(case, monkeypatch):
    kwargs, digest = PINNED_COSTS[case]
    _, costs = tj.run_batch(**_with_chunk(monkeypatch, kwargs), return_costs=True)
    assert hashlib.sha256(costs.astype("<f8").tobytes()).hexdigest() == digest


# sha256 of both arms' per-path costs, recorded from the engine that stepped
# one row per path.  The constant control moves the ground state, so the
# counting engine's table of distinct states grows with every detection step.
COUNTING_TABLE_CASE = dict(
    model=tj.COUNTING, x0=[0.0, 0.0, 1.0], params=ModelParams(kappa_s_sq=0.8, horizon_T=1.0),
    dt=1e-3, n_paths=4096, seed=5,
)
PINNED_TABLE_COSTS = "e05e95d10f5c133f6e77e16a68e5717e3bd69ab1fcbfea19e2f7cad537160b98"


def test_counting_table_costs_are_pinned():
    policies = [tj.constant_policy(tj.COUNTING, (0.3, -0.2)), tj.zero_policy(tj.COUNTING)]
    arms = tj.run_batches(policies=policies, **COUNTING_TABLE_CASE, return_costs=True)
    costs = np.stack([c for _, c in arms])
    assert hashlib.sha256(costs.astype("<f8").tobytes()).hexdigest() == PINNED_TABLE_COSTS


def _recording(policy, seen):
    """``policy``, recording the number of states of each call."""
    return lambda t, s: seen.append(len(s)) or policy(t, s)


def test_counting_policy_sees_the_start_and_ground_rows_when_ground_is_fixed():
    # with no control the ground state is a fixed point (zero intensity, zero
    # drift), so every path is on the start's row or on the ground row
    seen = []
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.5)
    stats = tj.run_batch(tj.COUNTING, _recording(tj.zero_policy(tj.COUNTING), seen),
                         [1.0, 0.0, 0.0], params, 1e-3, 4096, seed=3)
    assert len(seen) == 500 and max(seen) == 2 and seen[0] == 1
    assert stats.n == 4096


def test_counting_table_grows_by_at_most_one_row_per_detection_step(monkeypatch):
    seen, detected = [], []
    thinned = tj._thinned

    def spy(*args):
        flags = thinned(*args)
        detected.append(flags.any())
        return flags

    monkeypatch.setattr(tj, "_thinned", spy)
    policy = _recording(tj.constant_policy(tj.COUNTING, (0.3, -0.2)), seen)
    tj.run_batch(policy=policy, **COUNTING_TABLE_CASE)
    bound = 1 + np.concatenate([[0], np.cumsum(detected)[:-1]])
    assert len(seen) == len(detected) == 1000
    assert np.all(np.array(seen) <= bound)
    assert 50 < max(seen) < 4096


def test_package_import_leaves_out_concurrent_futures():
    # the engine runs its chunks serially and needs no executor
    code = "import sys, qubitfeedback; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_out_numpy_random():
    # numpy.random costs the CLI's start-up memory; the engine imports it on its first run
    code = "import sys, qubitfeedback.cli; assert 'numpy.random' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], timeout=120, check=True)


def test_noise_memory_is_flat_in_the_horizon():
    def peak_bytes(horizon_T):
        params = ModelParams(kappa_s_sq=0.5, horizon_T=horizon_T)
        tracemalloc.start()
        try:
            tj.run_batch(tj.DIFFUSIVE, tj.zero_policy(tj.DIFFUSIVE), [1, 0, 0],
                         params, 1e-3, 64, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_bytes(0.5)  # the first run also allocates one-time caches
    short, long = peak_bytes(0.5), peak_bytes(5.0)
    assert long <= 1.5 * short, (short, long)


def _run(policy, x0=(0.0, 0.0, 1.0), **kw):
    return tj.run_batch(tj.DIFFUSIVE, policy, x0, MIXED, 0.01, 6, seed=1, **kw)


@pytest.mark.parametrize(
    "policy, message",
    [
        (lambda t, s: np.full(s.shape[:-1] + (2,), np.nan), "non-finite controls"),
        (lambda t, s: np.zeros(s.shape), "policy returned shape"),
        (lambda t, s: np.zeros((s.shape[0] + 1, 2)), "policy returned shape"),
    ],
    ids=["nan", "trailing-3", "extra-row"],
)
def test_run_batch_rejects_bad_policy_output(policy, message):
    with pytest.raises(ValueError, match=message):
        _run(policy)


def test_run_batch_rejects_bad_start_and_tolerance():
    zero = tj.zero_policy(tj.DIFFUSIVE)
    with pytest.raises(ValueError, match="outside the unit ball"):
        _run(zero, x0=(0.6, 0.0, 0.9))
    with pytest.raises(ValueError, match="must be finite"):
        _run(zero, x0=(np.nan, 0.0, 0.0))


def test_engine_entries_reject_a_negative_seed():
    zero = tj.zero_policy(tj.ANGLE)
    params = ModelParams(alpha=0.5, horizon_T=1.0)
    runs = [
        lambda seed: tj.simulate(tj.ANGLE, zero, 0.0, params, 0.1, seed=seed),
        lambda seed: tj.run_batch(tj.ANGLE, zero, 0.0, params, 0.1, 2, seed=seed),
        lambda seed: tj.run_batches(tj.ANGLE, [zero, zero], 0.0, params, 0.1, 2, seed=seed),
        lambda seed: tj.ensemble_means(tj.ANGLE, zero, 0.0, params, 0.1, 2, [1.0], seed=seed),
    ]
    for run in runs:
        with pytest.raises(ValueError, match=r"^seed must be nonnegative, got -1$"):
            run(-1)
        run(0)
        run(None)


def test_engine_entries_reject_non_integer_seeds_and_path_counts():
    zero = tj.zero_policy(tj.ANGLE)
    params = ModelParams(alpha=0.5, horizon_T=1.0)
    seeded = [
        lambda seed: tj.simulate(tj.ANGLE, zero, 0.0, params, 0.1, seed=seed),
        lambda seed: tj.run_batch(tj.ANGLE, zero, 0.0, params, 0.1, 2, seed=seed),
        lambda seed: tj.run_batches(tj.ANGLE, [zero, zero], 0.0, params, 0.1, 2, seed=seed),
        lambda seed: tj.ensemble_means(tj.ANGLE, zero, 0.0, params, 0.1, 2, [1.0], seed=seed),
    ]
    for run in seeded:
        for seed in (1.7, 2.5, 1.0):
            with pytest.raises(ValueError, match=rf"^seed must be a nonnegative integer, got {seed}$"):
                run(seed)
        run(np.int64(1))
    counted = [
        lambda n: tj.run_batch(tj.ANGLE, zero, 0.0, params, 0.1, n, seed=1),
        lambda n: tj.run_batches(tj.ANGLE, [zero], 0.0, params, 0.1, n, seed=1),
        lambda n: tj.ensemble_means(tj.ANGLE, zero, 0.0, params, 0.1, n, [1.0], seed=1),
    ]
    for run in counted:
        for n in (2.5, 2.0, 0):
            with pytest.raises(ValueError, match=rf"^n_paths must be an integer >= 1, got {n}$"):
                run(n)
        run(np.int32(2))
    # numpy integers run the same paths as Python ints
    a = tj.run_batch(tj.ANGLE, zero, 1.0, params, 0.1, np.int64(3), seed=np.uint8(4))
    b = tj.run_batch(tj.ANGLE, zero, 1.0, params, 0.1, 3, seed=4)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_run_batch_rejects_more_paths_than_32_bit_indices_before_allocating():
    # a path's substream takes its index as one 32-bit word, so 2**32 paths
    # are the most a run can have; the check comes before any array is made
    zero = tj.zero_policy(tj.ANGLE)
    with pytest.raises(ValueError, match=r"^n_paths must be at most 2\*\*32, got 4294967297$"):
        tj.run_batch(tj.ANGLE, zero, 0.0, ModelParams(alpha=0.5, horizon_T=1.0), 0.1,
                     2**32 + 1, seed=1)


SUBSTREAM_INDICES = [0, 1, 2, 4095, 2**31, 2**32 - 1]


@pytest.mark.parametrize("seed", [0, 3, 7, 2**31, 2**32 - 1, 2**40, 2**64 + 5, 2**130])
def test_path_generators_are_the_seed_sequence_substreams(seed):
    # the one-pass seeding gives path i numpy's PCG64(SeedSequence((seed, i)))
    rngs = tj._path_rngs(seed, SUBSTREAM_INDICES)
    assert len(rngs) == len(SUBSTREAM_INDICES)
    for rng, i in zip(rngs, SUBSTREAM_INDICES):
        reference = np.random.PCG64(np.random.SeedSequence((seed, i)))
        assert rng.bit_generator.state == reference.state
        np.testing.assert_array_equal(rng.random(16), np.random.Generator(reference).random(16))


def test_an_unseeded_run_is_the_run_of_one_fresh_seed(monkeypatch):
    # seed=None draws one 128-bit seed for the whole run, here of three chunks
    drawn, fresh = [], np.random.SeedSequence

    def spy():
        seq = fresh()
        drawn.append(seq.entropy)
        return seq

    monkeypatch.setattr(tj, "CHUNK_PATHS", 4)
    monkeypatch.setattr(np.random, "SeedSequence", spy)
    zero = tj.zero_policy(tj.DIFFUSIVE)
    _, unseeded = tj.run_batch(tj.DIFFUSIVE, zero, [1.0, 0.0, 0.0], MIXED, 0.1, 10,
                               return_costs=True)
    (seed,) = drawn
    assert seed >= 2**64
    _, seeded = tj.run_batch(tj.DIFFUSIVE, zero, [1.0, 0.0, 0.0], MIXED, 0.1, 10, seed=seed,
                             return_costs=True)
    assert np.array_equal(_bits(unseeded), _bits(seeded))
    assert len(np.unique(seeded)) == 10


def test_run_batch_rejects_a_state_that_turns_non_finite():
    # finite controls this large overflow the drift on the first step
    huge = tj.constant_policy(tj.DIFFUSIVE, (1e308, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            _run(huge)


def test_run_batches_check_every_policy_for_a_non_finite_state():
    zero = tj.zero_policy(tj.DIFFUSIVE)
    huge = tj.constant_policy(tj.DIFFUSIVE, (1e308, 0.0))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            tj.run_batches(tj.DIFFUSIVE, [zero, huge], (0.0, 0.0, 1.0), MIXED, 0.01, 6, seed=1)


# sha256 of full trajectory records and ensemble means, one case per model,
# recorded before the per-model record replaced the model branches in the
# engine, the policy factories and the CSV writer.
PINNED_CSV = {
    tj.DIFFUSIVE: (
        dict(policy=tj.constant_policy(tj.DIFFUSIVE, (0.1, 0.2)), x0=[1.0, 0.0, 0.0],
             params=MIXED, dt=0.05, seed=23),
        "109a9de16eeeb2406840a42c73bd7476d760e7b90814af6044c06f2d2f9fdc6a",
    ),
    tj.COUNTING: (
        dict(policy=tj.constant_policy(tj.COUNTING, (0.3, -0.2)), x0=[0.0, 0.0, 1.0],
             params=QUBIT, dt=0.01, seed=0),
        "355a6e5ce82fb71703b8aec8eba8a93322ea75ddd91a7bf1a2c16c388d76e930",
    ),
    tj.ANGLE: (
        dict(policy=tj.lq_policy(ANGLE), x0=1.0, params=ANGLE, dt=0.05, seed=29),
        "426a965a8aa6b33f5fa86fe759ba28e2e677a478cb0b73c706ce45b14539312d",
    ),
}

PINNED_MEANS = {
    tj.DIFFUSIVE: (
        dict(policy=tj.constant_policy(tj.DIFFUSIVE, (0.2, -0.1)), x0=[1.0, 0.0, 0.0],
             params=MIXED, dt=0.01, n_paths=40, times=[0.0, 0.3, 1.0], seed=4,
             chunk_paths=16),
        "7022628d61d6603507d500cd36d2bf50bdd7ea7a4075c69d44379e850f3225c6",
    ),
    tj.COUNTING: (
        dict(policy=tj.zero_policy(tj.COUNTING), x0=[0.6, 0.0, 0.8], params=QUBIT,
             dt=0.01, n_paths=40, times=[1.0, 0.5], seed=8),
        "8c2e26e05e2354831d2919a8fb8c38ca3a62fed22e2d1d0e0a90366126ffb84c",
    ),
    tj.ANGLE: (
        dict(policy=tj.lq_policy(ANGLE), x0=1.0, params=ANGLE, dt=0.01, n_paths=40,
             times=[0.2, 1.0], seed=6),
        "91997e1dee109dcb7055ec5a5276b673de3cf25a2c4aeee4e7ce336fb98cd463",
    ),
}


def _csv_digest(model, kwargs):
    buf = io.StringIO()
    tj.simulate(model, **kwargs).to_csv(buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _means_digest(model, kwargs):
    means, stderrs = tj.ensemble_means(model, **kwargs)
    blob = np.concatenate([means.ravel(), stderrs.ravel()]).astype("<f8").tobytes()
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("model", tj.MODELS)
def test_simulate_csv_bytes_are_pinned(model):
    kwargs, digest = PINNED_CSV[model]
    assert _csv_digest(model, kwargs) == digest


@pytest.mark.parametrize("model", tj.MODELS)
def test_ensemble_means_are_pinned(model, monkeypatch):
    kwargs, digest = PINNED_MEANS[model]
    assert _means_digest(model, _with_chunk(monkeypatch, kwargs)) == digest
