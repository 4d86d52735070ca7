"""Tests for the closed-form angle-model solution and its self-checks."""

import numpy as np
import pytest

from qubitfeedback import lq


def test_riccati_f_values():
    assert lq.riccati_f(0.0, 1.0) == pytest.approx(0.2)
    assert lq.riccati_f(0.75, 1.0) == pytest.approx(0.5)
    assert lq.riccati_f(1.0, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        lq.riccati_f(1.1, 1.0)


def test_g_term_values():
    assert lq.g_term(0.0, 1.0, 1.0) == pytest.approx(np.log(5.0))
    assert lq.g_term(1.0, 1.0, 1.0) == pytest.approx(0.0)
    assert lq.g_term(0.3, 1.0, 0.0) == pytest.approx(0.0)


def test_value_and_control_examples():
    assert lq.value(0.0, 1.0, 1.0, 0.5) == pytest.approx(0.2 + 0.25 * np.log(5.0))
    assert lq.value(1.0, 0.7, 1.0, 0.5) == pytest.approx(0.49)  # terminal cost
    assert lq.optimal_B(0.0, 1.0, 1.0) == pytest.approx(-0.4)
    assert lq.optimal_B(1.0, 1.0, 1.0) == pytest.approx(-2.0)


def test_control_is_negative_value_gradient():
    rng = np.random.default_rng(3)
    t = rng.uniform(0.0, 0.9, 200)
    theta = rng.uniform(-3.0, 3.0, 200)
    h = 1e-6
    grad = (lq.value(t, theta + h, 1.0, 0.5) - lq.value(t, theta - h, 1.0, 0.5)) / (
        2.0 * h
    )
    assert np.abs(lq.optimal_B(t, theta, 1.0) + grad).max() <= 1e-8


def test_riccati_equation_holds():
    # f' = 4 f^2 and g' = -4 alpha^2 f, checked by central differences
    rng = np.random.default_rng(5)
    t = rng.uniform(0.0, 0.99, 300)
    h = 1e-6
    fp = (lq.riccati_f(t + h, 1.0) - lq.riccati_f(t - h, 1.0)) / (2.0 * h)
    assert np.abs(fp - 4.0 * lq.riccati_f(t, 1.0) ** 2).max() <= 1e-6
    gp = (lq.g_term(t + h, 1.0, 0.7) - lq.g_term(t - h, 1.0, 0.7)) / (2.0 * h)
    assert np.abs(gp + 4.0 * 0.7**2 * lq.riccati_f(t, 1.0)).max() <= 1e-6


def test_hjb_residual_small_on_true_solution():
    rng = np.random.default_rng(7)
    t = rng.uniform(0.0, 1.0 - 2e-4, 1000)
    theta = rng.uniform(-3.0, 3.0, 1000)
    res = lq.hjb_residual(t, theta, 1.0, 0.5, h=1e-4)
    assert res.max() <= 1e-5


def test_hjb_residual_rejects_late_times():
    with pytest.raises(ValueError):
        lq.hjb_residual(1.0, 0.0, 1.0, 0.5, h=1e-4)


def test_hjb_residual_detects_perturbation():
    # the same stencil applied to J + 0.1*theta^3 must light up
    T, alpha, h = 1.0, 0.5, 1e-4

    def bad(t, theta):
        return lq.value(t, theta, T, alpha) + 0.1 * theta**3

    for t in (0.0, 0.3, 0.6, 0.9):
        theta = 1.0
        dt_term = (bad(t + h, theta) - bad(t - h, theta)) / (2.0 * h)
        dth = (bad(t, theta + h) - bad(t, theta - h)) / (2.0 * h)
        d2th = (bad(t, theta + h) - 2.0 * bad(t, theta) + bad(t, theta - h)) / (h * h)
        assert abs(dt_term - dth**2 + 2.0 * alpha**2 * d2th) >= 1e-2


def test_ode_check_accuracy():
    assert lq.ode_check(1.0, 0.5, dt=1e-3) <= 1e-8


def test_ode_check_is_order_four():
    gaps = [lq.ode_check(1.0, 0.5, dt=dt) for dt in (8e-3, 4e-3, 2e-3)]
    ratios = [gaps[i] / gaps[i + 1] for i in range(2)]
    for r in ratios:
        assert 12.0 <= r <= 20.0, f"expected ~16x error drop per halving, got {r}"
