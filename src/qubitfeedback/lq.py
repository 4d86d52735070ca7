"""Closed-form solution of the angle (dephasing) control problem.

For d(theta) = 2*B*dt + 2*alpha*dW with cost  E[ theta_T^2 + int_0^T B^2dt ],
the cost-to-go is quadratic,

    J(t, theta) = theta^2 * f(t) + g(t),
    f(t) = 1 / (4*(T - t) + 1),
    g(t) = alpha^2 * log(4*(T - t) + 1),

with optimal feedback B(t, theta) = -2*theta / (4*(T - t) + 1) = -dJ/dtheta.
f solves the scalar Riccati equation f' = 4 f^2 with f(T) = 1 and g solves
g' = -4 alpha^2 f with g(T) = 0.

Two self-checks make the formulas falsifiable without reference to any
solver: `hjb_residual` plugs the closed form into the dynamic-programming
PDE via finite differences, and `ode_check` integrates the Riccati system
backward with RK4 and reports the gap to the formulas.
"""

from __future__ import annotations

import numpy as np


def riccati_f(t, T: float):
    """Quadratic coefficient f(t) = 1/(4(T-t)+1) for t <= T."""
    t = np.asarray(t, dtype=float)
    if np.any(t > T + 1e-12):
        raise ValueError("riccati_f is defined for t <= T")
    return 1.0 / (4.0 * (T - t) + 1.0)


def g_term(t, T: float, alpha: float):
    """Additive term g(t) = alpha^2 * log(4(T-t)+1), the price of the noise."""
    t = np.asarray(t, dtype=float)
    if np.any(t > T + 1e-12):
        raise ValueError("g_term is defined for t <= T")
    return alpha**2 * np.log(4.0 * (T - t) + 1.0)


def value(t, theta, T: float, alpha: float):
    """Optimal cost-to-go J(t, theta)."""
    theta = np.asarray(theta, dtype=float)
    return theta**2 * riccati_f(t, T) + g_term(t, T, alpha)


def optimal_B(t, theta, T: float):
    """Optimal feedback B(t, theta) = -2*theta/(4(T-t)+1)."""
    theta = np.asarray(theta, dtype=float)
    return -2.0 * theta * riccati_f(t, T)


def hjb_residual(t, theta, T: float, alpha: float, h: float = 1e-4):
    """| dJ/dt - (dJ/dtheta)^2 + 2 alpha^2 d2J/dtheta2 | by central differences.

    Zero (to O(h^2)) exactly when `value` solves the dynamic-programming
    equation of the angle model.  Requires t + h <= T so the forward time
    difference stays inside the domain.
    """
    t = np.asarray(t, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(t + h > T):
        raise ValueError("need t + h <= T for the central time difference")
    dt_term = (value(t + h, theta, T, alpha) - value(t - h, theta, T, alpha)) / (
        2.0 * h
    )
    dth = (value(t, theta + h, T, alpha) - value(t, theta - h, T, alpha)) / (2.0 * h)
    d2th = (
        value(t, theta + h, T, alpha)
        - 2.0 * value(t, theta, T, alpha)
        + value(t, theta - h, T, alpha)
    ) / (h * h)
    return np.abs(dt_term - dth**2 + 2.0 * alpha**2 * d2th)


def ode_check(T: float, alpha: float, dt: float = 1e-4) -> float:
    """Integrate f' = 4f^2, g' = -4 alpha^2 f backward with RK4.

    Starts from (f, g) = (1, 0) at t = T and steps down to t = 0,
    comparing against `riccati_f` and `g_term` on every node.  Returns the
    sup-norm gap over both components; small values certify the closed
    forms independently of how they were derived.
    """
    n = int(round(T / dt))
    if n < 1 or abs(n * dt - T) > 1e-9 * T:
        raise ValueError(f"dt={dt!r} does not divide T={T!r}")

    def rhs(y):
        f, _ = y
        return np.array([4.0 * f * f, -4.0 * alpha**2 * f])

    y = np.array([1.0, 0.0])
    h = -dt  # backward in time
    worst = 0.0
    for k in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = T - (k + 1) * dt
        worst = max(
            worst,
            abs(y[0] - riccati_f(t, T)),
            abs(y[1] - g_term(t, T, alpha)),
        )
    return worst

