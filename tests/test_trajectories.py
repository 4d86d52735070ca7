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
from qubitfeedback.filters import GROUND_STATE, ModelParams


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


def test_package_import_leaves_out_concurrent_futures():
    # the engine runs its chunks serially and needs no executor
    code = "import sys, qubitfeedback; print('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    assert proc.stdout.strip() == "False"


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
