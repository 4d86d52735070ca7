"""Bloch-vector filtering equations for a continuously monitored qubit.

A two-level emitter decays into the electromagnetic field through a single
lowering channel split between two output modes: a monitored "side" mode
with coupling kappa_s and a feedback mode with coupling kappa_f, normalized
so kappa_s**2 + kappa_f**2 = 1.  Conditioning on a measurement of the side
mode gives a stochastic equation for the conditional state, written here in
polarization (Bloch) coordinates P = (px, py, pz) with

    rho = (I + px*sx + py*sy + pz*sz) / 2 .

Two unravelings of the same average dynamics are provided:

* homodyne detection of the side field, a diffusive equation driven by the
  innovation process dW, with observation increment
  dY = kappa_s * px * dt + dW;
* direct photodetection, a counting equation whose jumps reset the state to
  the ground state (0, 0, -1) with intensity (kappa_s**2 / 2) * (1 + pz).

Feedback enters through two real control amplitudes (u_plus, u_minus)
driving the feedback mode.  Both unravelings average to the same Lindblad
master equation, which `lindblad` evaluates in the density-matrix picture.

A third, exactly solvable model is included for benchmarking: a qubit under
a dephasing-type measurement of strength alpha and a z-rotation control B.
There the radius and pz are conserved and the dynamics reduce to the phase
angle on a circle, d(theta) = 2*B*dt + 2*alpha*dW; its Euler step is
`trajectories.step_angle` and its closed-form solution lives in `lq`.

All coefficient functions are vectorized over leading axes: states may be
arrays of shape (..., 3) and controls arrays of shape (..., 2).
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)

# lowering operator of the decay channel
LOWERING = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)

# states are allowed to poke this far out of the unit ball before being
# radially projected back onto the sphere
BALL_TOL = 1e-6

# the checked coefficient functions reject states further out than this,
# so no projection tolerance may exceed it
MAX_BALL_TOL = 1e-3

# the counting unraveling resets here on every detection event
GROUND_STATE = np.array([0.0, 0.0, -1.0])


@dataclasses.dataclass(frozen=True)
class ModelParams:
    """Physical constants shared by the qubit and angle models.

    Parameters
    ----------
    kappa_s_sq : float
        Squared coupling into the monitored side mode, in [0, 1].
    kappa_f_sq : float, optional
        Squared coupling into the feedback mode.  Defaults to
        1 - kappa_s_sq; the two must sum to one.
    alpha : float
        Measurement strength of the dephasing (angle) model, >= 0.
    horizon_T : float
        Control horizon, > 0.
    """

    kappa_s_sq: float = 1.0
    kappa_f_sq: float | None = None
    alpha: float = 0.0
    horizon_T: float = 1.0

    def __post_init__(self):
        if np.isfinite(self.kappa_s_sq) and not 0.0 <= self.kappa_s_sq <= 1.0:
            raise ValueError(f"kappa_s_sq must lie in [0, 1], got {self.kappa_s_sq!r}")
        if self.kappa_f_sq is None:
            object.__setattr__(self, "kappa_f_sq", 1.0 - self.kappa_s_sq)
        for name in ("kappa_s_sq", "kappa_f_sq", "alpha", "horizon_T"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.kappa_s_sq < 0.0 or self.kappa_f_sq < 0.0:
            raise ValueError("squared couplings must be nonnegative")
        if abs(self.kappa_s_sq + self.kappa_f_sq - 1.0) > 1e-12:
            raise ValueError(
                "kappa_s_sq + kappa_f_sq must equal 1, got "
                f"{self.kappa_s_sq + self.kappa_f_sq!r}"
            )
        if self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        if self.horizon_T <= 0.0:
            raise ValueError("horizon_T must be positive")

    @property
    def kappa_s(self) -> float:
        return float(np.sqrt(self.kappa_s_sq))

    @property
    def kappa_f(self) -> float:
        return float(np.sqrt(self.kappa_f_sq))


def warn_if_controls_unusable(params: ModelParams, control_box=None) -> None:
    """Warn when controls are configured but the feedback mode is closed.

    With kappa_f = 0 the control Hamiltonian vanishes identically, so any
    nonzero control box or policy burns running cost without moving the
    state.
    """
    if params.kappa_f_sq == 0.0 and control_box is not None:
        box = np.asarray(control_box, dtype=float)
        if np.any(box != 0.0):
            warnings.warn(
                "kappa_f_sq = 0: controls cannot act on the state, but a "
                "nonzero control box was configured",
                stacklevel=2,
            )


def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")


def _as_bloch(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (3,):
        raise ValueError(f"Bloch vector must have trailing dimension 3, got shape {p.shape}")
    _check_finite(p, "Bloch vector")
    norms = np.linalg.norm(p, axis=-1)
    if np.any(norms > 1.0 + MAX_BALL_TOL):
        raise ValueError(f"Bloch vector outside unit ball: |p| up to {norms.max()}")
    return p


def _as_control(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[-1:] != (2,):
        raise ValueError(f"control must have trailing dimension 2, got shape {u.shape}")
    _check_finite(u, "control")
    return u


def project_to_ball(p, ball_tol: float = BALL_TOL) -> np.ndarray:
    """Radially project states with |p| > 1 + ball_tol onto the unit sphere.

    States inside the tolerance band are returned unchanged.  Vectorized
    over leading axes.
    """
    p = np.array(p, dtype=float)
    _project_xyz(_xyz(p), ball_tol)
    return p


def _xyz(a) -> np.ndarray:
    """Components-first view of an array with a trailing axis."""
    a = np.asarray(a, dtype=float)
    return a.transpose(a.ndim - 1, *range(a.ndim - 1))


def _stack_last(components) -> np.ndarray:
    """Stack broadcast-compatible components along a new trailing axis."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


# ---------------------------------------------------------------------------
# unchecked encodings of the filter coefficients, one per formula.  They
# take components (px, py, pz, u_plus, u_minus) as separate arrays, so a
# caller holding a (3, n) state reads contiguous rows.  The public
# functions below validate and then call these.  The step kernels in
# `trajectories` call them directly on states the engine has validated,
# and both grid solvers in `bellman` (the finite-difference sweep and the
# dynamic-programming step) on grid nodes valid by construction.


def _project_xyz(xyz: np.ndarray, ball_tol: float) -> np.ndarray:
    """Radial projection, in place, of a (3, ...) array of components.

    The squared norm is summed in the order np.linalg.norm uses on a
    trailing axis, so both layouts project the same states bit for bit.
    """
    px, py, pz = xyz
    norms = np.sqrt((px * px + py * py) + pz * pz)
    outside = norms > 1.0 + ball_tol
    if outside.any():
        np.divide(xyz, norms, out=xyz, where=outside)
    return xyz


def _diffusive_drift_xyz(px, py, pz, u_plus, u_minus):
    two_up = 2.0 * u_plus
    two_um = 2.0 * u_minus
    return (
        -0.5 * px - two_up * pz,
        -0.5 * py + two_um * pz,
        -(1.0 + pz) + two_up * px - two_um * py,
    )


def _diffusive_diffusion_xyz(px, py, pz, kappa_s: float):
    neg_px = -px
    one_pz = 1.0 + pz
    return (
        kappa_s * (one_pz - px * px),
        kappa_s * (neg_px * py),
        kappa_s * (neg_px * one_pz),
    )


def _jump_intensity_z(pz, kappa_s_sq: float):
    return 0.5 * kappa_s_sq * (1.0 + pz)


def _counting_drift_xyz(px, py, pz, u_plus, u_minus, lam):
    """Between-jump drift given the jump intensity ``lam`` at the state."""
    base = _diffusive_drift_xyz(px, py, pz, u_plus, u_minus)
    return tuple(
        b + lam * (c - g) for b, c, g in zip(base, (px, py, pz), GROUND_STATE)
    )


def bloch_to_density(p) -> np.ndarray:
    """Map Bloch vectors (..., 3) to density matrices (..., 2, 2)."""
    p = _as_bloch(p)
    px, py, pz = p[..., 0], p[..., 1], p[..., 2]
    rho = np.empty(p.shape[:-1] + (2, 2), dtype=complex)
    rho[..., 0, 0] = (1.0 + pz) / 2.0
    rho[..., 1, 1] = (1.0 - pz) / 2.0
    rho[..., 0, 1] = (px - 1.0j * py) / 2.0
    rho[..., 1, 0] = (px + 1.0j * py) / 2.0
    return rho


def density_to_bloch(rho, tol: float = 1e-9) -> np.ndarray:
    """Map density matrices (..., 2, 2) to Bloch vectors (..., 3).

    Parameters
    ----------
    rho : array_like
        Candidate density matrices.
    tol : float
        Admissibility tolerance: Hermiticity defect, trace defect and
        negative-eigenvalue excursions beyond ``tol`` are rejected.

    Returns
    -------
    ndarray
        Bloch vectors p_i = Re tr(sigma_i rho).
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"density matrix must be (..., 2, 2), got shape {rho.shape}")
    _check_finite(rho.view(float), "density matrix")
    herm_defect = np.abs(rho - np.conj(np.swapaxes(rho, -1, -2))).max()
    if herm_defect > tol:
        raise ValueError(f"matrix is not Hermitian within {tol} (defect {herm_defect})")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    trace_defect = np.abs(trace - 1.0).max()
    if trace_defect > tol:
        raise ValueError(f"trace differs from 1 by {trace_defect}")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -tol:
        raise ValueError(f"matrix has negative eigenvalue {eigs.min()}")
    px = 2.0 * np.real(rho[..., 1, 0])
    py = 2.0 * np.imag(rho[..., 1, 0])
    pz = np.real(rho[..., 0, 0] - rho[..., 1, 1])
    return np.stack([px, py, pz], axis=-1)


def lindblad(rho, u, params: ModelParams) -> np.ndarray:
    """Evaluate the controlled Lindblad generator in the matrix picture.

    L(rho) = -i[H(u), rho]
             + sum_k ( V_k rho V_k* - (V_k* V_k rho + rho V_k* V_k) / 2 )

    with V_s = kappa_s * V, V_f = kappa_f * V for the lowering operator V,
    and control Hamiltonian H(u) = -(u_minus * sx + u_plus * sy).  The sign
    of H is fixed so that the matrix picture reproduces the Bloch equations
    of motion used everywhere else (the image of `lindblad` under
    `density_to_bloch`'s linear part equals `diffusive_drift`).

    Vectorized over leading axes of ``rho`` and ``u``.
    """
    rho = np.asarray(rho, dtype=complex)
    u = _as_control(u)
    u_plus, u_minus = u[..., 0], u[..., 1]
    ham = -(
        np.multiply.outer(u_minus, SIGMA_X) + np.multiply.outer(u_plus, SIGMA_Y)
    )
    commutator = ham @ rho - rho @ ham
    # the two decay channels add up to a unit-rate dissipator but are kept
    # separate to mirror the physical split of the output field
    out = -1.0j * commutator
    for rate in (params.kappa_s_sq, params.kappa_f_sq):
        v_rho_vdag = rate * (LOWERING @ rho @ LOWERING.conj().T)
        vdag_v = rate * (LOWERING.conj().T @ LOWERING)
        out = out + v_rho_vdag - 0.5 * (vdag_v @ rho + rho @ vdag_v)
    return out


def diffusive_drift(p, u) -> np.ndarray:
    """Drift of the homodyne filtering equation, shape (..., 3).

    Independent of the kappa split: the total decay rate is normalized to
    one, and the controls act through the feedback mode.
    """
    p = _as_bloch(p)
    u = _as_control(u)
    return _stack_last(_diffusive_drift_xyz(*_xyz(p), *_xyz(u)))


def diffusive_diffusion(p, params: ModelParams) -> np.ndarray:
    """Diffusion (noise) vector of the homodyne filtering equation."""
    p = _as_bloch(p)
    return _stack_last(_diffusive_diffusion_xyz(*_xyz(p), params.kappa_s))


def observation_drift(p, params: ModelParams) -> np.ndarray:
    """Drift of the homodyne observation process: dY = kappa_s*px*dt + dW."""
    p = _as_bloch(p)
    return params.kappa_s * p[..., 0]


def counting_drift(p, u, params: ModelParams) -> np.ndarray:
    """Between-jump drift of the counting filter (jump term compensated).

    Equals `diffusive_drift` plus jump_intensity(p) * (p - jump_target),
    the compensator of the reset-to-ground jumps.
    """
    p = _as_bloch(p)
    u = _as_control(u)
    lam = _jump_intensity_z(p[..., 2], params.kappa_s_sq)
    return _stack_last(_counting_drift_xyz(*_xyz(p), *_xyz(u), lam))


def jump_intensity(p, params: ModelParams) -> np.ndarray:
    """Detection rate of the counting unraveling: (kappa_s^2/2)(1 + pz)."""
    p = _as_bloch(p)
    return _jump_intensity_z(p[..., 2], params.kappa_s_sq)


def jump_target(p=None) -> np.ndarray:
    """Post-jump state: the ground state, independent of the pre-jump state."""
    if p is None:
        return GROUND_STATE.copy()
    p = np.asarray(p, dtype=float)
    return np.broadcast_to(GROUND_STATE, p.shape).copy()

