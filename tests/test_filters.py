"""Unit and property tests for the filtering-equation coefficients."""

import numpy as np
import pytest

from qubitfeedback import filters
from qubitfeedback.filters import (
    GROUND_STATE,
    LOWERING,
    ModelParams,
    bloch_to_density,
    counting_drift,
    density_to_bloch,
    diffusive_drift,
    diffusive_diffusion,
    jump_intensity,
    jump_target,
    lindblad,
    observation_drift,
    project_to_ball,
)


def random_ball_points(rng, n):
    """Uniform draws from the closed unit ball."""
    v = rng.standard_normal((n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return v * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / 3.0)


def random_sphere_points(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# state conversions


def test_bloch_to_density_poles_and_equator():
    np.testing.assert_allclose(
        bloch_to_density([0.0, 0.0, 1.0]), np.diag([1.0, 0.0]), atol=1e-15
    )
    np.testing.assert_allclose(
        bloch_to_density([0.0, 0.0, -1.0]), np.diag([0.0, 1.0]), atol=1e-15
    )
    np.testing.assert_allclose(
        bloch_to_density([1.0, 0.0, 0.0]), np.full((2, 2), 0.5), atol=1e-15
    )


def test_conversion_round_trip():
    rng = np.random.default_rng(7)
    p = random_ball_points(rng, 500)
    back = density_to_bloch(bloch_to_density(p))
    assert np.abs(back - p).max() <= 1e-12


def test_density_to_bloch_rejects_bad_matrices():
    with pytest.raises(ValueError):
        density_to_bloch(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        density_to_bloch(np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ValueError):
        density_to_bloch(np.diag([1.2, -0.2]))  # negative eigenvalue
    with pytest.raises(ValueError):
        density_to_bloch(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_bloch_vector_validation():
    with pytest.raises(ValueError):
        bloch_to_density([2.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        diffusive_drift([np.inf, 0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        diffusive_drift([0.0, 0.0, 0.5], [np.nan, 0.0])


def test_project_to_ball():
    p = np.array([[0.0, 0.0, 0.5], [2.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
    out = project_to_ball(p)
    np.testing.assert_allclose(out[0], p[0])  # inside: untouched
    np.testing.assert_allclose(np.linalg.norm(out[1]), 1.0)
    np.testing.assert_allclose(out[2], p[2])  # on the sphere: untouched
    # within tolerance band: untouched
    q = np.array([1.0 + 5e-7, 0.0, 0.0])
    np.testing.assert_allclose(project_to_ball(q), q)


# ---------------------------------------------------------------------------
# model parameters


def test_model_params_validation():
    params = ModelParams(kappa_s_sq=0.3)
    assert params.kappa_f_sq == pytest.approx(0.7)
    with pytest.raises(ValueError):
        ModelParams(kappa_s_sq=0.5, kappa_f_sq=0.6)
    with pytest.raises(ValueError):
        ModelParams(kappa_s_sq=-0.1, kappa_f_sq=1.1)
    with pytest.raises(ValueError):
        ModelParams(alpha=-1.0)
    with pytest.raises(ValueError):
        ModelParams(horizon_T=0.0)


@pytest.mark.parametrize("kappa_s_sq", [2.0, -0.5])
def test_model_params_names_an_out_of_range_kappa_s_sq(kappa_s_sq):
    with pytest.raises(ValueError, match=rf"^kappa_s_sq must lie in \[0, 1\], got {kappa_s_sq}$"):
        ModelParams(kappa_s_sq=kappa_s_sq)


def test_unusable_controls_warn():
    params = ModelParams(kappa_s_sq=1.0)  # kappa_f = 0
    with pytest.warns(UserWarning):
        filters.warn_if_controls_unusable(params, control_box=((-5, 5), (-5, 5)))
    # zero box or open feedback mode: silent
    filters.warn_if_controls_unusable(params, control_box=((0, 0), (0, 0)))
    filters.warn_if_controls_unusable(ModelParams(kappa_s_sq=0.5), ((-5, 5), (-5, 5)))


# ---------------------------------------------------------------------------
# Lindblad generator


def test_lindblad_excited_state_decay():
    params = ModelParams(kappa_s_sq=0.5)
    rho = np.diag([1.0, 0.0]).astype(complex)
    expected = np.array([[-1.0, 0.0], [0.0, 1.0]], dtype=complex)
    np.testing.assert_allclose(lindblad(rho, [0.0, 0.0], params), expected, atol=1e-15)


def test_lindblad_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(11)
    params = ModelParams(kappa_s_sq=0.25)
    rho = bloch_to_density(random_ball_points(rng, 2000))
    u = rng.uniform(-5.0, 5.0, (2000, 2))
    out = lindblad(rho, u, params)
    traces = np.trace(out, axis1=-2, axis2=-1)
    assert np.abs(traces).max() <= 1e-12
    assert np.abs(out - np.conj(np.swapaxes(out, -1, -2))).max() <= 1e-12


def test_lindblad_matches_bloch_drift():
    # the matrix and vector pictures must be the same generator
    rng = np.random.default_rng(13)
    params = ModelParams(kappa_s_sq=0.7)
    p = random_ball_points(rng, 2000)
    u = rng.uniform(-5.0, 5.0, (2000, 2))
    gen = lindblad(bloch_to_density(p), u, params)
    # linear part of density_to_bloch (no admissibility checks: the
    # generator itself is traceless, not a state)
    image = np.stack(
        [
            2.0 * np.real(gen[..., 1, 0]),
            2.0 * np.imag(gen[..., 1, 0]),
            np.real(gen[..., 0, 0] - gen[..., 1, 1]),
        ],
        axis=-1,
    )
    assert np.abs(image - diffusive_drift(p, u)).max() <= 1e-12


# ---------------------------------------------------------------------------
# diffusive (homodyne) coefficients


def test_diffusive_drift_examples():
    np.testing.assert_allclose(
        diffusive_drift([0.0, 0.0, 1.0], [0.0, 0.0]), [0.0, 0.0, -2.0], atol=1e-15
    )
    np.testing.assert_allclose(
        diffusive_drift([0.0, 0.0, 1.0], [1.0, 0.0]), [-2.0, 0.0, -2.0], atol=1e-15
    )


def test_diffusive_diffusion_examples():
    params = ModelParams(kappa_s_sq=1.0)
    np.testing.assert_allclose(
        diffusive_diffusion([0.0, 0.0, 1.0], params), [2.0, 0.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        diffusive_diffusion([1.0, 0.0, 0.0], params), [0.0, 0.0, -1.0], atol=1e-15
    )
    half = ModelParams(kappa_s_sq=0.5)
    np.testing.assert_allclose(
        diffusive_diffusion([0.0, 0.0, 1.0], half),
        [2.0 * np.sqrt(0.5), 0.0, 0.0],
        atol=1e-15,
    )


def test_observation_drift_against_trace_oracle():
    # dY's drift is Tr(V_s rho + rho V_s*), computed here independently in
    # the matrix picture
    rng = np.random.default_rng(17)
    params = ModelParams(kappa_s_sq=0.5)
    p = random_ball_points(rng, 1000)
    rho = bloch_to_density(p)
    v_s = params.kappa_s * LOWERING
    oracle = np.real(np.trace(v_s @ rho + rho @ v_s.conj().T, axis1=-2, axis2=-1))
    assert np.abs(observation_drift(p, params) - oracle).max() <= 1e-12
    np.testing.assert_allclose(
        observation_drift([1.0, 0.0, 0.0], ModelParams(kappa_s_sq=1.0)), 1.0
    )
    np.testing.assert_allclose(
        observation_drift([-1.0, 0.0, 0.0], params), -np.sqrt(0.5)
    )


def test_sphere_tangency_identities():
    # with kappa_s^2 = 1 pure states stay pure: the noise vector is tangent
    # to the sphere and the Ito drift of |P|^2 vanishes
    rng = np.random.default_rng(19)
    params = ModelParams(kappa_s_sq=1.0)
    p = random_sphere_points(rng, 2000)
    u = rng.uniform(-5.0, 5.0, (2000, 2))
    sigma = diffusive_diffusion(p, params)
    drift = diffusive_drift(p, u)
    radial_drift = 2.0 * np.sum(p * drift, axis=-1) + np.sum(sigma * sigma, axis=-1)
    radial_noise = 2.0 * np.sum(p * sigma, axis=-1)
    assert np.abs(radial_drift).max() <= 1e-12
    assert np.abs(radial_noise).max() <= 1e-12


# ---------------------------------------------------------------------------
# counting (photodetection) coefficients


def test_counting_drift_examples():
    params = ModelParams(kappa_s_sq=1.0, kappa_f_sq=0.0)
    np.testing.assert_allclose(
        counting_drift([0.0, 0.0, 1.0], [0.0, 0.0], params), [0.0, 0.0, 0.0], atol=1e-15
    )
    np.testing.assert_allclose(
        counting_drift([1.0, 0.0, 0.0], [0.0, 0.0], params), [0.0, 0.0, -0.5], atol=1e-15
    )


def test_counting_drift_is_compensated_diffusive_drift():
    rng = np.random.default_rng(23)
    params = ModelParams(kappa_s_sq=0.5)
    p = random_ball_points(rng, 1000)
    u = rng.uniform(-5.0, 5.0, (1000, 2))
    gap = counting_drift(p, u, params) - diffusive_drift(p, u)
    expected = jump_intensity(p, params)[:, None] * (p - jump_target(p))
    assert np.abs(gap - expected).max() <= 1e-14


def test_jump_intensity_examples_and_sign():
    np.testing.assert_allclose(
        jump_intensity([0.0, 0.0, 1.0], ModelParams(kappa_s_sq=1.0)), 1.0
    )
    np.testing.assert_allclose(
        jump_intensity([0.3, 0.1, 0.0], ModelParams(kappa_s_sq=0.5)), 0.25
    )
    rng = np.random.default_rng(29)
    p = random_ball_points(rng, 1000)
    assert jump_intensity(p, ModelParams(kappa_s_sq=0.8)).min() >= 0.0
    # intensity vanishes only at the ground state
    np.testing.assert_allclose(
        jump_intensity(GROUND_STATE, ModelParams(kappa_s_sq=1.0)), 0.0, atol=1e-15
    )


def test_jump_target_is_constant():
    np.testing.assert_allclose(jump_target(), [0.0, 0.0, -1.0])
    rng = np.random.default_rng(31)
    p = random_ball_points(rng, 50)
    assert jump_target(p).shape == p.shape
    assert np.all(jump_target(p) == GROUND_STATE)
