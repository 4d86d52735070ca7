"""Backward grid solvers for the optimal feedback control problems.

Two solver families share the grid machinery.  ``solve_backward`` steps the
control-minimized equation for the cost-to-go explicitly backward in time
with finite differences: upwind one-sided differences for the drift terms,
central differences for the diffusion, and the completed-squares control
evaluated from the numerical gradient at each node.  ``solve_dp`` iterates
the one-step dynamic-programming recursion instead (``dp_recursion_step``),
replacing derivatives with interpolation of the next slice at the
post-step states: a two-point quadrature stands in for the Wiener
increment and a Bernoulli branch pair for the detection events, and the
minimization runs either over an explicit control grid or through the
same completed-squares formula.

Qubit grids are uniform over the cube [-1, 1]^3 with nodes outside the
closed unit ball masked out and stored as NaN; no ghost values are
invented outside the ball, so stencils shorten to one-sided at the mask
edge.  The angle model lives on a uniform periodic grid over [-pi, pi).
Each grid spec builds its geometry once, from the mask alone: axes, active
nodes and, on first use, the plan that extends a slice past the mask for
interpolation and the neighbour table, the flat index of each active node's
neighbour at every offset in {-1, 0, 1}^dim, wrapping on a periodic axis
and one past the last node off the grid.  Each step gathers its slice at
the table once; both families' stencils and feedback rule read that gather,
on the active nodes only.  Value functions persist to ``.vgrid`` files: one
JSON header line, then the value slices and control slices as little-endian
float64 in row-major node order, finite exactly on the active nodes.
"""

from __future__ import annotations

import io
import json
import math
import os
import stat
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .filters import (
    GROUND_STATE,
    ModelParams,
    _counting_drift_xyz,
    _diffusive_diffusion_xyz,
    _diffusive_drift_xyz,
    _jump_intensity_z,
    diffusive_diffusion,
    diffusive_drift,
)
from .persist import atomic_write_bytes
from .trajectories import COUNTING, ModelRecord, model_from_id, model_record

CLOSED_FORM = "closed-form"
EXHAUSTIVE = "exhaustive"
CONTROL_MODES = (CLOSED_FORM, EXHAUSTIVE)

VGRID_VERSION = 1

# the JSON type of each header field read as a value (JSON true/false are
# never numbers); n_nodes is a list of int
_HEADER_TYPES = {
    "model": str, "n_nodes": int, "n_steps": int, "delta": int | float,
    "horizon_T": int | float, "kappa_s_sq": int | float, "alpha": int | float,
    "control_mode": str, "control_box": int | float | None,
    "control_resolution": int | None,
}
# the fields fixed by the model record are checked against it
_HEADER_KEYS = ("format", "version", "bounds", "periodic", "n_controls", *_HEADER_TYPES)

# node is active when |p|^2 <= 1 + MASK_TOL; the slack absorbs rounding in
# the squared norm of exact on-sphere nodes
MASK_TOL = 1e-12

# explicit stepping keeps a factor-4 margin under the monotonicity limit
CFL_SAFETY = 0.25

# exhaustive DP evaluates this many control candidates per interpolation
# call: enough to amortize the per-call overhead, few enough that the
# queries stay a small multiple of the slice in memory
DP_BLOCK = 3


@dataclass(frozen=True)
class GridSpec:
    """Discretization of one control problem: state grid, time grid, controls.

    ``n_nodes`` is one count per state axis (a bare int is applied to every
    axis).  ``control_box`` bounds each control component to [-box, box];
    ``control_resolution`` is the number of points per control axis used by
    exhaustive minimization.  ``n_steps`` may be 0, in which case a solve
    returns the terminal cost alone.
    """

    model: str
    n_nodes: tuple[int, ...]
    n_steps: int
    horizon_T: float
    control_box: float | None = None
    control_resolution: int | None = None

    def __post_init__(self):
        model_record(self.model)
        nodes = self.n_nodes
        nodes = (nodes,) * self.dim if np.isscalar(nodes) else tuple(nodes)
        if not all(float(n).is_integer() for n in nodes):
            raise ValueError(f"n_nodes must be integers, got {self.n_nodes!r}")
        nodes = tuple(int(n) for n in nodes)
        if len(nodes) != self.dim:
            raise ValueError(
                f"n_nodes must give {self.dim} axis count(s) for {self.model!r}, "
                f"got {nodes}"
            )
        if min(nodes) < 3:
            raise ValueError(f"n_nodes must be >= 3 per axis, got {nodes}")
        object.__setattr__(self, "n_nodes", nodes)
        if not float(self.n_steps).is_integer() or self.n_steps < 0:
            raise ValueError(f"n_steps must be a nonnegative integer, got {self.n_steps!r}")
        object.__setattr__(self, "n_steps", int(self.n_steps))
        T = float(self.horizon_T)
        if not np.isfinite(T) or T <= 0.0:
            raise ValueError(f"horizon_T must be positive, got {self.horizon_T!r}")
        object.__setattr__(self, "horizon_T", T)
        if self.control_box is not None:
            box = float(self.control_box)
            if not np.isfinite(box) or box < 0.0:
                raise ValueError(f"control_box must be >= 0, got {self.control_box!r}")
            object.__setattr__(self, "control_box", box)
        res = self.control_resolution
        if res is not None:
            if not float(res).is_integer() or res < 1:
                raise ValueError(f"control_resolution must be an integer >= 1, got {res!r}")
            if self.control_box is None:
                raise ValueError("control_resolution requires a control_box")
            object.__setattr__(self, "control_resolution", int(res))

    @cached_property
    def record(self) -> ModelRecord:
        return model_record(self.model)

    @property
    def dim(self) -> int:
        return len(self.record.bounds)

    @property
    def n_controls(self) -> int:
        return self.record.n_controls

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n_nodes

    @property
    def delta(self) -> float:
        return self.horizon_T / self.n_steps if self.n_steps else 0.0

    def axes(self) -> tuple[np.ndarray, ...]:
        """Node coordinates per axis; a periodic axis leaves out its upper end."""
        periodic = self.record.periodic
        return tuple(
            lo + (hi - lo) * np.arange(n) / n if periodic else np.linspace(lo, hi, n)
            for (lo, hi), n in zip(self.record.bounds, self.n_nodes)
        )

    def spacings(self) -> tuple[float, ...]:
        periodic = self.record.periodic
        return tuple(
            (hi - lo) / (n if periodic else n - 1)
            for (lo, hi), n in zip(self.record.bounds, self.n_nodes)
        )

    def points(self) -> np.ndarray:
        """Node coordinates: (n,) for the angle model, (*shape, 3) otherwise."""
        pts = np.stack(np.meshgrid(*self.axes(), indexing="ij"), axis=-1)
        return pts.reshape(self.shape + self.record.state_shape)

    def active_mask(self) -> np.ndarray:
        """Nodes in the state space: the whole circle, or the closed unit ball."""
        if self.record.periodic:
            return np.ones(self.shape, dtype=bool)
        pts = self.points()
        return np.sum(pts * pts, axis=-1) <= 1.0 + MASK_TOL

    @cached_property
    def _geometry(self) -> _Geometry:
        """The solvers' reading of this grid, built on first use; read-only."""
        mask = self.active_mask()
        flat = self.points()[mask]
        mask.flags.writeable = flat.flags.writeable = False
        active = slice(None) if mask.all() else mask
        return _Geometry(self.axes(), self.spacings(), self.record.periodic, mask, active, flat)

    def control_values(self) -> np.ndarray | None:
        """Control grid for exhaustive minimization, None when unconfigured."""
        if self.control_box is None or self.control_resolution is None:
            return None
        return np.linspace(-self.control_box, self.control_box, self.control_resolution)


@dataclass(frozen=True)
class ValueGrid:
    """Solved cost-to-go: values[k] and controls[k] approximate time k*delta.

    values has shape (n_steps+1, *grid); controls has one extra axis for the
    control components.  Masked nodes hold NaN in both.
    """

    spec: GridSpec
    kappa_s_sq: float
    alpha: float
    control_mode: str
    values: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        if self.control_mode not in CONTROL_MODES:
            raise ValueError(f"control_mode must be one of {CONTROL_MODES}")
        values = np.asarray(self.values, dtype=float)
        controls = np.asarray(self.controls, dtype=float)
        spec = self.spec
        want_v = (spec.n_steps + 1,) + spec.shape
        want_c = (spec.n_steps + 1, spec.n_controls) + spec.shape
        if values.shape != want_v:
            raise ValueError(f"values must have shape {want_v}, got {values.shape}")
        if controls.shape != want_c:
            raise ValueError(f"controls must have shape {want_c}, got {controls.shape}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "controls", controls)

    def save(self, path) -> None:
        """Write header + slices; atomic, byte-deterministic, loads bit-exactly.

        The header and both arrays are joined into one buffer for the write,
        so the payload is copied once.
        """
        spec = self.spec
        header = {
            "format": "vgrid",
            "version": VGRID_VERSION,
            **_model_fields(spec.record),
            "n_nodes": list(spec.n_nodes),
            "n_steps": spec.n_steps,
            "delta": spec.delta,
            "horizon_T": spec.horizon_T,
            "kappa_s_sq": self.kappa_s_sq,
            "alpha": self.alpha,
            "control_mode": self.control_mode,
            "control_box": spec.control_box,
            "control_resolution": spec.control_resolution,
        }
        blob = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
        values = np.ascontiguousarray(self.values, dtype="<f8")
        controls = np.ascontiguousarray(self.controls, dtype="<f8")
        atomic_write_bytes(path, b"".join([blob, memoryview(values), memoryview(controls)]))

    @classmethod
    def load(cls, path) -> "ValueGrid":
        """Read a grid written by `save`, checking the header and the payload.

        The payload size is checked against the header before any array is
        allocated; the slices are then read once into one array, of which
        ``values`` and ``controls`` are views.  A regular file is measured
        with ``fstat``; a pipe is read whole first and so briefly holds a
        second copy.
        """
        with open(path, "rb") as fh:
            spec, header = _read_header(fh, path)
            n_vals = (spec.n_steps + 1) * math.prod(spec.shape)
            expected = 8 * n_vals * (1 + spec.n_controls)
            st = os.fstat(fh.fileno())
            if stat.S_ISREG(st.st_mode):
                body, size = fh, st.st_size - fh.tell()
            else:  # a pipe has no size up front: it is read whole, then measured
                body = io.BytesIO(fh.read())
                size = len(body.getvalue())
            if size == expected:
                flat = np.empty(expected // 8, dtype="<f8")
                size = body.readinto(flat)
            if size != expected:
                raise ValueError(f"{path}: payload is {size} bytes, expected {expected}")
        values = flat[:n_vals].reshape((spec.n_steps + 1,) + spec.shape)
        controls = flat[n_vals:].reshape((spec.n_steps + 1, spec.n_controls) + spec.shape)
        mask = spec._geometry.mask
        for name, slices in (("values", values), ("controls", controls)):
            _require_finite_on(mask, slices, f"{path}: {name}")
        return cls(
            spec=spec,
            kappa_s_sq=float(header["kappa_s_sq"]),
            alpha=float(header["alpha"]),
            control_mode=header["control_mode"],
            values=values,
            controls=controls,
        )


def _read_header(fh, path) -> tuple[GridSpec, dict]:
    """The grid spec and header of an open ``.vgrid`` file, read up to its payload."""
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise ValueError(f"{path}: not a .vgrid file (no header line)")
    try:
        header = json.loads(line[:-1].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a .vgrid file ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != "vgrid":
        raise ValueError(f"{path}: not a .vgrid file (bad format field)")
    if header.get("version") != VGRID_VERSION:
        raise ValueError(
            f"{path}: unsupported vgrid version {header.get('version')!r}"
        )
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"{path}: header missing fields {missing}")
    for key, kind in _HEADER_TYPES.items():
        value = header[key]
        items = value if key == "n_nodes" else [value]
        if not isinstance(items, list) or any(
            isinstance(v, bool) or not isinstance(v, kind) for v in items
        ):
            raise ValueError(f"{path}: header field {key!r} has the wrong type: {value!r}")
    try:
        model = model_from_id(header["model"])
    except ValueError as exc:
        raise ValueError(f"{path}: header field 'model': {exc}") from None
    for key, want in _model_fields(model_record(model)).items():
        if header[key] != want:
            raise ValueError(
                f"{path}: header field {key!r} is {header[key]!r}, but the "
                f"{header['model']} model has {want!r}"
            )
    spec = GridSpec(
        model=model,
        n_nodes=tuple(header["n_nodes"]),
        n_steps=header["n_steps"],
        horizon_T=header["horizon_T"],
        control_box=header["control_box"],
        control_resolution=header["control_resolution"],
    )
    if not abs(header["delta"] - spec.delta) <= 1e-12 * max(spec.delta, 1.0):
        raise ValueError(f"{path}: delta inconsistent with n_steps and horizon_T")
    return spec, header


def _require_finite_on(mask, slices, name: str) -> None:
    """Raise unless every slice is finite exactly on the active nodes; blocks
    of slices are checked at a time, so no temporary nears the payload."""
    block = max(1, (1 << 20) // slices[0].size)
    for lo in range(0, len(slices), block):
        bad = np.isfinite(slices[lo : lo + block]) != mask
        if bad.any():
            k, *at = (int(i) for i in np.argwhere(bad)[0])
            where = "active" if mask[tuple(at[-mask.ndim :])] else "masked"
            raise ValueError(
                f"{name} slice {lo + k} must be finite exactly on the active nodes, "
                f"but holds {float(slices[lo + k][tuple(at)])!r} at {where} index {tuple(at)}"
            )


def _model_fields(rec: ModelRecord) -> dict:
    """The header fields that the model record fixes."""
    return {
        "model": rec.model_id,
        "bounds": [list(b) for b in rec.bounds],
        "periodic": [rec.periodic] * len(rec.bounds),
        "n_controls": rec.n_controls,
    }


# ---------------------------------------------------------------------------
# pointwise pieces of the backward equations


def terminal_cost(model: str, state):
    """1 - pz for the qubit models, theta^2 for the angle model."""
    rec = model_record(model)
    state = np.asarray(state, dtype=float)
    if state.shape[state.ndim - len(rec.state_shape):] != rec.state_shape:
        raise ValueError(f"{model} states must have trailing shape {rec.state_shape}")
    return rec.terminal_cost(state)


def optimal_controls_from_gradient(p, grad, control_box: float | None = None):
    """Completed-squares minimizer of the control Hamiltonian, shape (..., 2).

    u_plus = pz*dJ/dx - px*dJ/dz and u_minus = py*dJ/dz - pz*dJ/dy, clipped
    into the control box when one is given.
    """
    p = np.asarray(p, dtype=float)
    g = np.asarray(grad, dtype=float)
    u_plus = p[..., 2] * g[..., 0] - p[..., 0] * g[..., 2]
    u_minus = p[..., 1] * g[..., 2] - p[..., 2] * g[..., 1]
    u = np.stack([u_plus, u_minus], axis=-1)
    if control_box is not None:
        u = np.clip(u, -control_box, control_box)
    return u


def hjb_rhs_diffusive(p, grad, hess, params: ModelParams, control_box=None):
    """Minus the time derivative of the cost-to-go, homodyne model.

    The second-order coefficients are contracted from the outer product of
    the diffusion vector, never spelled out termwise.  The control terms,
    running cost plus control-drift contraction, are taken at the best
    admissible u.
    """
    p = np.asarray(p, dtype=float)
    g = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    zero_u = np.zeros(p.shape[:-1] + (2,))
    drift_term = np.sum(diffusive_drift(p, zero_u) * g, axis=-1)
    sigma = diffusive_diffusion(p, params)
    quad = 0.5 * np.einsum("...i,...j,...ij->...", sigma, sigma, hess)
    c = optimal_controls_from_gradient(p, g)
    if control_box is None:
        control = -np.sum(c * c, axis=-1)
    else:
        u = np.clip(c, -control_box, control_box)
        control = np.sum(u * u - 2.0 * u * c, axis=-1)
    return drift_term + quad + control


# ---------------------------------------------------------------------------
# stencils on a slice's neighbour gather (NaN: masked or off the grid)


def _neighbours(shape, periodic: bool, nodes: np.ndarray, offsets) -> np.ndarray:
    """Flat index of each node's neighbour at each offset, (len(offsets), len(nodes)),
    read off the index grid padded by its periodic wrap or by one past the last node."""
    flat = np.arange(np.prod(shape)).reshape(shape)
    padded = np.pad(flat, 1, "wrap") if periodic else np.pad(flat, 1, constant_values=flat.size)
    coords = np.stack(np.unravel_index(nodes, shape)) + 1
    return np.stack([padded[tuple(coords + np.reshape(step, (-1, 1)))] for step in offsets])


def _nb(g: np.ndarray, *moves) -> np.ndarray:
    """A gather's row at the offset made of (axis, +-1) moves; none is the node."""
    at = [0] * (g.ndim - 1)
    for axis, step in moves:
        at[axis] = step
    return g[tuple(at)]


def _gradient(g: np.ndarray, spacings, limited: bool = False) -> np.ndarray:
    """Per-axis gradient from a gather, (m, dim), one-sided inward at a missing neighbor.

    Between two active neighbors it is the central difference, or with
    ``limited`` the minmod of the one-sided ones, used for control selection
    inside the DP recursion: the central estimate feeds oscillations back
    through the squared control cost and can run away when the slice has a
    kink; the minmod limiter is zero at local extrema, which breaks that
    loop, and costs only O(slope error)^2 per step in the minimized
    objective.
    """
    values = _nb(g)
    grads = np.empty((len(spacings), values.size))
    for axis, h in enumerate(spacings):
        vp, vm = _nb(g, (axis, 1)), _nb(g, (axis, -1))
        has_p = np.isfinite(vp)
        has_m = np.isfinite(vm)
        fwd = (vp - values) / h
        bwd = (values - vm) / h
        if limited:
            a, b = np.where(has_p, fwd, 0.0), np.where(has_m, bwd, 0.0)
            both = np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)
        else:
            both = (vp - vm) / (2.0 * h)
        one_sided = np.where(has_p, fwd, np.where(has_m, bwd, 0.0))
        grads[axis] = np.where(has_p & has_m, both, one_sided)
    return grads.T


def _advection_upwind(g: np.ndarray, drift, spacings) -> np.ndarray:
    """sum_i b_i * D_i values from a gather, (m,), by the one-sided difference b_i points at.

    Where the upwind neighbor is masked the term is dropped rather than
    flipped downwind: the downwind difference puts a positive coefficient on
    the node itself and feeds growth at the mask edge.
    """
    values = _nb(g)
    total = 0.0  # a sum from zero: a lone -0.0 term gives 0.0
    for axis, (h, b) in enumerate(zip(spacings, drift)):
        vp, vm = _nb(g, (axis, 1)), _nb(g, (axis, -1))
        fwd = np.where(np.isfinite(vp), (vp - values) / h, 0.0)
        bwd = np.where(np.isfinite(vm), (values - vm) / h, 0.0)
        total = total + b * np.where(b > 0.0, fwd, bwd)
    return total


def _diffusion_term(g: np.ndarray, sigma, spacings) -> np.ndarray:
    """(1/2) sigma sigma^T : Hessian from a gather, (m,), with central stencils.

    Stencils needing a masked neighbor are dropped to zero: any one-sided
    second difference puts a positive coefficient on the node itself, which
    is explosive under explicit stepping.  The noise is tangent to the
    sphere, so the dropped normal component is small where it matters.
    """
    values = _nb(g)
    total = 0.0  # a sum from zero: a lone -0.0 term gives 0.0
    ndim = len(spacings)
    for axis, h in enumerate(spacings):
        vp, vm = _nb(g, (axis, 1)), _nb(g, (axis, -1))
        d2 = np.where(
            np.isfinite(vp) & np.isfinite(vm),
            (vp - 2.0 * values + vm) / (h * h),
            0.0,
        )
        total = total + 0.5 * sigma[axis] ** 2 * d2
    for i in range(ndim):
        for j in range(i + 1, ndim):
            vpp, vpm, vmp, vmm = (
                _nb(g, (i, si), (j, sj)) for si in (1, -1) for sj in (1, -1)
            )
            ok = (
                np.isfinite(vpp) & np.isfinite(vpm)
                & np.isfinite(vmp) & np.isfinite(vmm)
            )
            cross = np.where(
                ok,
                (vpp - vpm - vmp + vmm) / (4.0 * spacings[i] * spacings[j]),
                0.0,
            )
            total = total + sigma[i] * sigma[j] * cross
    return total


def _fill_inactive(values: np.ndarray, plan) -> np.ndarray:
    """Extend a slice over the nodes outside the state space by repeated
    neighbor averaging.

    Gives interpolation something sane to read just outside the ball; the
    extension is never treated as a solution value.  ``plan`` is the grid's
    ``_fill_plan(~mask, mask)``: each sweep sets every masked node that has
    an active or already filled axis neighbor to the mean of those
    neighbors, read before the sweep.  What the slice holds on masked nodes
    is never read.  The neighbors are summed in the order of the
    whole-array sweep (axis by axis, +1 before -1), so a slice that is NaN
    exactly off the mask is filled bit for bit as that sweep fills it.
    """
    filled = np.asarray(values, dtype=float)
    # one trailing 0.0 stands in for every neighbor a sweep does not count
    ext = np.zeros(filled.size + 1)
    ext[:-1] = filled.ravel()
    for targets, neighbors, counts in plan:
        acc = np.zeros(targets.size)
        for slot in neighbors:
            acc += ext.take(slot)
        ext[targets] = acc / counts
    return ext[:-1].reshape(filled.shape)


def _fill_plan(missing: np.ndarray, good: np.ndarray) -> list:
    """Per sweep: target nodes, their neighbor slots and the neighbor counts.

    Flat indices; a slot whose neighbor is off the grid, or neither good
    nor filled by an earlier sweep, points at the sentinel one past the
    last node.  ``missing`` nodes are filled, ``good`` ones are read.
    """
    shape = missing.shape
    size = missing.size
    axis_offsets = [step * unit for unit in np.eye(len(shape), dtype=int) for step in (1, -1)]
    missing = missing.ravel().copy()
    good = np.append(good.ravel(), False)
    plan = []
    while missing.any():
        cand = np.flatnonzero(missing)
        slots = _neighbours(shape, False, cand, axis_offsets)
        slots = np.where(good[slots], slots, size)
        counts = np.count_nonzero(slots < size, axis=0)
        newly = counts > 0
        if not newly.any():
            raise ValueError("cannot extend an all-NaN slice")
        targets = cand[newly]
        plan.append((targets, np.ascontiguousarray(slots[:, newly]), counts[newly].astype(float)))
        missing[targets] = False
        good[targets] = True
    return plan


def _interp_plan(axes, pts):
    """(lead shape, flat base index per query, corner (weight, flat offset)
    pairs in bit order) of box-clamped queries; weights multiply in axis order.
    """
    pts = np.asarray(pts, dtype=float)
    d = len(axes)
    q = pts.reshape(-1, d)
    lin = 0
    stride = 1
    offsets = []
    weights = []
    for ax in reversed(range(d)):
        nodes = axes[ax]
        h = nodes[1] - nodes[0]
        f = (np.clip(q[:, ax], nodes[0], nodes[-1]) - nodes[0]) / h
        i0 = np.clip(np.floor(f).astype(int), 0, nodes.size - 2)
        frac = np.clip(f - i0, 0.0, 1.0)
        lin = lin + i0 * stride
        offsets.insert(0, stride)
        weights.insert(0, (1.0 - frac, frac))
        stride *= nodes.size
    # corner c has bit ax set when it sits at the upper node of axis ax;
    # grow the (weight, offset) table one axis at a time, low bits first
    corners = [(None, 0)]
    for ax in range(d):
        corners = [
            (weights[ax][bit] if w is None else w * weights[ax][bit], off + bit * offsets[ax])
            for bit in (0, 1)
            for w, off in corners
        ]
    return pts.shape[:-1], lin, corners


def _interp_apply(stack: np.ndarray, plan) -> np.ndarray:
    """Interpolate each slice of a (k, *grid) stack at a plan's queries: (*lead, k).

    Per slice the corners are summed in bit order, starting from zeros.
    """
    lead, lin, corners = plan
    flat = stack.reshape(len(stack), -1)
    out = np.zeros((len(stack), lin.size))
    for weight, off in corners:
        out += weight * flat.take(lin + off, axis=1)
    return out.T.reshape(lead + (len(stack),))


def _interp_box(filled: np.ndarray, axes, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of one slice on a uniform box grid; queries are
    clamped.  Bit for bit the same as a read with one index array per axis.
    """
    return _interp_apply(filled[None], _interp_plan(axes, pts))[..., 0]


def _interp_periodic(values: np.ndarray, theta) -> np.ndarray:
    """Linear interpolation on the periodic angle grid; any real angle works."""
    theta = np.asarray(theta, dtype=float)
    n = values.size
    h = 2.0 * np.pi / n
    f = (theta + np.pi) / h
    i0 = np.floor(f).astype(int)
    w = f - i0
    i0 = np.mod(i0, n)
    return values[i0] * (1.0 - w) + values[np.mod(i0 + 1, n)] * w


def _require_finite(active: np.ndarray, slice_idx: int, geo) -> None:
    if not np.isfinite(active).all():
        node = tuple(int(i) for i in np.argwhere(geo.mask)[np.argmin(np.isfinite(active))])
        raise RuntimeError(f"non-finite value at slice {slice_idx}, node {node}")


def _check_spec_params(spec: GridSpec, params: ModelParams) -> None:
    if abs(spec.horizon_T - params.horizon_T) > 1e-12 * params.horizon_T:
        raise ValueError(
            f"grid horizon {spec.horizon_T!r} differs from model horizon "
            f"{params.horizon_T!r}"
        )


def _require_stable(delta: float, bound: float) -> None:
    if delta > bound:
        raise ValueError(
            f"time step {delta:.6g} violates the stability bound {bound:.6g}; "
            "increase n_steps or coarsen the grid"
        )


@dataclass(frozen=True)
class _Geometry:
    """What the solvers read of one grid (see the module docstring); the active
    index is a full slice, read as views, on the all-active angle grid."""

    axes: tuple
    spacings: tuple
    periodic: bool
    mask: np.ndarray
    active: object
    flat: np.ndarray

    @cached_property
    def fill(self) -> list:
        return _fill_plan(~self.mask, self.mask)

    @cached_property
    def neighbours(self) -> np.ndarray:
        """The neighbour table, (3,)*dim + (m,): [i, j, k] holds offset (i, j, k)."""
        offsets = (np.array(list(np.ndindex((3,) * self.mask.ndim))) + 1) % 3 - 1
        table = _neighbours(self.mask.shape, self.periodic, np.flatnonzero(self.mask), offsets)
        return table.reshape((3,) * self.mask.ndim + (-1,))

    def gather(self, v: np.ndarray) -> np.ndarray:
        """A slice, NaN off the mask, read at the neighbour table: (3,)*dim + (m,)."""
        return np.concatenate((v.ravel(), [np.nan])).take(self.neighbours)


def _feedback(g, spec: GridSpec, geo: _Geometry, limited: bool = False):
    """(slope, control) from a slice's gather: the central slope, or with ``limited``
    the minmod one (see `_gradient`), and the boxed control minimizing the
    Hamiltonian there: minus the slope on the angle, completed squares on a qubit."""
    slope = _gradient(g, geo.spacings, limited)
    if geo.periodic:
        slope = slope[:, 0]
        u = -slope
    else:
        u = optimal_controls_from_gradient(geo.flat, slope)
    box = spec.control_box
    return slope, u if box is None else np.clip(u, -box, box)


def _place(out: np.ndarray, geo: _Geometry, active: np.ndarray) -> np.ndarray:
    """Write per-node values, (m,) or (m, c), onto the active nodes of a NaN slice."""
    if active.ndim == 1:
        out.reshape(geo.mask.shape)[geo.active] = active
    else:
        # one boolean write per component: out[:, mask] = active.T is slower
        for row, col in zip(out, active.T):
            row[geo.active] = col
    return out


def _terminal_slices(spec: GridSpec, geo: _Geometry):
    """(values, controls) of a sweep, NaN but for the terminal values."""
    n_steps = spec.n_steps
    values = np.full((n_steps + 1,) + spec.shape, np.nan)
    controls = np.full((n_steps + 1, spec.n_controls) + spec.shape, np.nan)
    _place(values[n_steps], geo, terminal_cost(spec.model, geo.flat))
    return values, controls


# ---------------------------------------------------------------------------
# finite-difference solver


def solve_backward(spec: GridSpec, params: ModelParams) -> ValueGrid:
    """Explicit finite-difference sweep of the backward equation.

    Checks the diffusion stability bound delta <= 0.25 h^2 / max_diffusion
    up front (the counting model, having no diffusion, gets the analogous
    drift-plus-intensity load bound with worst-case box controls instead;
    an unbounded counting solve is checked at zero control only).  Raises
    ValueError when the bound fails and RuntimeError, naming slice and
    node, if a non-finite value appears anyway.
    """
    _check_spec_params(spec, params)
    geo = spec._geometry
    rhs = (_fd_rhs_angle if spec.record.periodic else _fd_rhs_qubit)(spec, params, geo)
    values, controls = _terminal_slices(spec, geo)
    # each slice stores the feedback read off its own gather, slice 0 too
    for k in range(spec.n_steps, -1, -1):
        g = geo.gather(values[k])
        slope, u = _feedback(g, spec, geo)
        _place(controls[k], geo, u)
        if k:
            new = _nb(g) + spec.delta * rhs(values[k], g, slope, u)
            _require_finite(new, k - 1, geo)
            _place(values[k - 1], geo, new)
    return ValueGrid(spec, params.kappa_s_sq, params.alpha, CLOSED_FORM, values, controls)


# the builders check stability before any slice is allocated, then return
# rhs(v, g, slope, u): minus the time derivative from a slice and its gather


def _fd_rhs_angle(spec: GridSpec, params: ModelParams, geo: _Geometry):
    h = geo.spacings[0]
    diffusion = 2.0 * params.alpha**2
    if diffusion > 0.0:
        _require_stable(spec.delta, CFL_SAFETY * h * h / diffusion)
    sigma = (2.0 * params.alpha,)

    def rhs(v, g, slope, b):
        return b * b + 2.0 * b * slope + _diffusion_term(g, sigma, geo.spacings)

    return rhs


def _fd_rhs_qubit(spec: GridSpec, params: ModelParams, geo: _Geometry):
    spacings = geo.spacings
    # the grid nodes and the completed-squares controls are valid by
    # construction, so the coefficients come from the unchecked component
    # encodings, as in the DP step
    px, py, pz = geo.flat.T.copy()

    if spec.model == COUNTING:
        lam = _jump_intensity_z(pz, params.kappa_s_sq)
        # monotone load of the drift/jump stepping, worst-case controls
        u_max = spec.control_box if spec.control_box is not None else 0.0
        b0 = np.stack(_counting_drift_xyz(px, py, pz, 0.0, 0.0, lam), axis=-1)
        swing = 2.0 * u_max * np.stack([np.abs(pz), np.abs(pz), np.abs(px) + np.abs(py)], axis=-1)
        load = np.sum((np.abs(b0) + swing) / np.asarray(spacings), axis=-1) + lam
        worst = float(load.max())
        if worst > 0.0:
            _require_stable(spec.delta, CFL_SAFETY / worst)
        # the detection term reads J at the ground state, one query per solve
        ground = _interp_plan(geo.axes, GROUND_STATE)

        def rhs(v, g, slope, u):
            drift = _counting_drift_xyz(px, py, pz, u[:, 0], u[:, 1], lam)
            j_ground = float(_interp_apply(_fill_inactive(v, geo.fill)[None], ground)[0])
            step = _advection_upwind(g, drift, spacings) + lam * (j_ground - _nb(g))
            return step + np.sum(u * u, axis=-1)

    else:
        sigma = _diffusive_diffusion_xyz(px, py, pz, params.kappa_s)
        max_diffusion = float((0.5 * np.sum(np.stack(sigma, axis=-1) ** 2, axis=-1)).max())
        if max_diffusion > 0.0:
            _require_stable(spec.delta, CFL_SAFETY * min(spacings) ** 2 / max_diffusion)

        def rhs(v, g, slope, u):
            drift = _diffusive_drift_xyz(px, py, pz, u[:, 0], u[:, 1])
            step = _advection_upwind(g, drift, spacings) + _diffusion_term(g, sigma, spacings)
            return step + np.sum(u * u, axis=-1)

    return rhs


# ---------------------------------------------------------------------------
# dynamic-programming recursion


def dp_recursion_step(values, spec: GridSpec, params: ModelParams, mode: str = CLOSED_FORM):
    """One backward step of the dynamic-programming recursion.

    The expectation over the next state uses a two-point quadrature for the
    Wiener increment (exact through second moments) and, for the counting
    model, the Bernoulli pair {jump to ground, drift through}.  In
    ``"exhaustive"`` mode the minimization scans the configured control
    grid; in ``"closed-form"`` mode it evaluates the completed-squares
    control read off the slice gradient.  Over a full horizon the two modes
    agree to about T * (control grid spacing)^2; tests pin the measured
    constant.  The slice must be finite on the active nodes; what it holds
    on masked nodes is ignored.  Returns the new slice.
    """
    _check_dp_mode(spec, mode)
    if spec.n_steps < 1:
        raise ValueError("dp_recursion_step needs n_steps >= 1 for a positive delta")
    values = np.asarray(values, dtype=float)
    if values.shape != spec.shape:
        raise ValueError(f"slice must have shape {spec.shape}, got {values.shape}")
    geo = spec._geometry
    if not np.isfinite(values[geo.mask]).all():
        raise ValueError("slice must be finite on the active nodes")
    # the solvers' slices are NaN exactly off the mask
    values = np.where(geo.mask, values, np.nan)
    best = _dp_step(values, spec, params, mode, geo)[0]
    return _place(np.full(spec.shape, np.nan), geo, best)


def _check_dp_mode(spec: GridSpec, mode: str) -> None:
    if mode not in CONTROL_MODES:
        raise ValueError(f"mode must be one of {CONTROL_MODES}")
    if mode == EXHAUSTIVE and spec.control_values() is None:
        raise ValueError("exhaustive mode needs control_box and control_resolution")


def _dp_step(v, spec, params, mode, geo):
    """(value, control) on the active nodes after one DP step: the model's
    objective minimized by the blocked control scan or at the limited
    completed-squares control."""
    build = _dp_step_angle if spec.record.periodic else _dp_step_qubit
    objective = build(v, spec, params, geo)
    if mode == CLOSED_FORM:
        best_u = _feedback(geo.gather(v), spec, geo, limited=True)[1]
        return objective(best_u), best_u
    grid = spec.control_values()
    cands = np.stack(np.meshgrid(*(grid,) * spec.n_controls, indexing="ij"), axis=-1)
    cands = cands.reshape((-1,) + spec.record.control_shape)
    m = len(geo.flat)
    best = np.full(m, np.inf)
    best_k = np.zeros(m, dtype=int)
    better = np.empty(m, dtype=bool)
    # candidates in meshgrid order, DP_BLOCK at a time; the strict < keeps
    # the first of equal values
    for start in range(0, len(cands), DP_BLOCK):
        vals = objective(cands[start : start + DP_BLOCK, None])
        for k, val in enumerate(vals, start):
            np.less(val, best, out=better)
            np.copyto(best, val, where=better)
            np.copyto(best_k, k, where=better)
    return best, cands[best_k]


def _dp_step_angle(v, spec, params, geo):
    """Objective of an angle step: periodic reads at the two Wiener kicks."""
    theta = geo.flat
    delta = spec.delta
    kick = 2.0 * params.alpha * np.sqrt(delta)

    def objective(b):
        drifted = theta + 2.0 * b * delta
        mean_next = 0.5 * (
            _interp_periodic(v, drifted + kick) + _interp_periodic(v, drifted - kick)
        )
        return b * b * delta + mean_next

    return objective


def _dp_step_qubit(v, spec, params, geo):
    """Objective of a qubit step: Wiener quadrature or the Bernoulli jump pair."""
    axes = geo.axes
    px, py, pz = geo.flat.T.copy()
    delta = spec.delta
    filled = _fill_inactive(v, geo.fill)

    # the grid nodes and the controls are valid by construction, so the
    # coefficients come from the unchecked component encodings; u_plus and
    # u_minus broadcast against the (m,) node components.  The post-step
    # queries go unclipped: the interpolation plan clamps every axis into
    # [-1, 1]
    if spec.model == COUNTING:
        lam = _jump_intensity_z(pz, params.kappa_s_sq)
        if delta * float(lam.max()) >= 1.0:
            raise ValueError("delta * max jump intensity >= 1; increase n_steps")
        jump_prob = lam * delta
        j_ground = float(_interp_box(filled, axes, np.asarray(GROUND_STATE, float)))

        def mean_next(u_plus, u_minus):
            drift = _counting_drift_xyz(px, py, pz, u_plus, u_minus, lam)
            q = np.empty((3,) + drift[2].shape)
            for c, (p, b) in enumerate(zip((px, py, pz), drift)):
                np.add(p, b * delta, out=q[c])
            out = (1.0 - jump_prob) * _interp_box(filled, axes, np.moveaxis(q, 0, -1))
            out += jump_prob * j_ground
            return out

    else:
        sqrt_delta = np.sqrt(delta)
        kick = [s * sqrt_delta for s in _diffusive_diffusion_xyz(px, py, pz, params.kappa_s)]

        def mean_next(u_plus, u_minus):
            drift = _diffusive_drift_xyz(px, py, pz, u_plus, u_minus)
            # (3, 2, ...): both kicks of each component, read in one call
            q = np.empty((3, 2) + drift[2].shape)
            for c, (p, b, k) in enumerate(zip((px, py, pz), drift, kick)):
                drifted = p + b * delta
                np.add(drifted, k, out=q[c, 0])
                np.subtract(drifted, k, out=q[c, 1])
            r = _interp_box(filled, axes, np.moveaxis(q, 0, -1))
            return 0.5 * (r[0] + r[1])

    def objective(u):
        return np.sum(u**2, axis=-1) * delta + mean_next(u[..., 0], u[..., 1])

    return objective


def solve_dp(spec: GridSpec, params: ModelParams, mode: str = CLOSED_FORM) -> ValueGrid:
    """Full backward dynamic-programming sweep (see dp_recursion_step)."""
    _check_spec_params(spec, params)
    if spec.n_steps:
        _check_dp_mode(spec, mode)
    geo = spec._geometry
    values, controls = _terminal_slices(spec, geo)
    _place(controls[-1], geo, _feedback(geo.gather(values[-1]), spec, geo)[1])
    # no per-step input checks: the terminal slice is finite on the mask
    for k in range(spec.n_steps, 0, -1):
        best, best_u = _dp_step(values[k], spec, params, mode, geo)
        _require_finite(best, k - 1, geo)
        _place(values[k - 1], geo, best)
        _place(controls[k - 1], geo, best_u)
    return ValueGrid(spec, params.kappa_s_sq, params.alpha, mode, values, controls)


# ---------------------------------------------------------------------------
# policy extraction


def extract_policy(vg: ValueGrid):
    """Feedback policy (t, state) -> control interpolated from a solved grid.

    Time picks the nearest stored slice; the state is clamped into the grid
    bounds and the stored controls are interpolated multilinearly.  Only
    the controls on the active nodes are read: the masked nodes are filled
    from them by repeated neighbor averaging (`_fill_inactive`, one plan
    per grid), so queries near the sphere stay finite.  The filled slices
    are written into one array the size of the controls, one slice at a
    time.  Queries with t outside [0, T] raise ValueError.  The returned
    callable accepts batched states.
    """
    spec = vg.spec
    n_steps = spec.n_steps
    horizon = spec.horizon_T
    delta = spec.delta
    tol = 1e-9 * max(horizon, 1.0)

    def slice_index(t: float) -> int:
        t = float(t)
        if t < -tol or t > horizon + tol:
            raise ValueError(f"policy query at t={t!r} outside [0, {horizon}]")
        if n_steps == 0:
            return 0
        return min(n_steps, max(0, int(np.floor(t / delta + 0.5))))

    if spec.record.periodic:
        table = vg.controls[:, 0, :]

        def policy(t, state):
            return _interp_periodic(table[slice_index(t)], state)

        return policy

    geo = spec._geometry
    slices = (-1,) + spec.shape
    filled = np.empty(vg.controls.shape)
    for out, c in zip(filled.reshape(slices), vg.controls.reshape(slices)):
        out[...] = _fill_inactive(c, geo.fill)

    def policy(t, state):
        # the plan clamps every axis into [-1, 1]; one plan serves both components
        return _interp_apply(filled[slice_index(t)], _interp_plan(geo.axes, state))

    return policy
