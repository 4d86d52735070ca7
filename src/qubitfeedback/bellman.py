"""Backward grid solvers for the optimal feedback control problems.

Two solver families share the grid machinery, one reading of each model's
controlled dynamics on the grid (`_dynamics`: drift, noise vector, jump
intensity) and one backward loop.  ``solve_backward`` steps the
control-minimized equation for the cost-to-go explicitly backward in time:
upwind differences for the drift, central ones on the circle, the qubit noise
as a rate times the mean of J read through the interpolation plan minus J, and
the completed-squares control from the numerical gradient at each node.
``solve_dp`` iterates the one-step dynamic-programming recursion instead
(``dp_recursion_step``), replacing derivatives with interpolation of the next
slice at the post-step states: a two-point quadrature stands in for the Wiener
increment and a Bernoulli branch pair for the detection events, and the
minimization runs either over an explicit control grid or through the same
completed-squares formula.  Each solver builds its step once per solve.  Every
interpolated read goes through one per-axis plan (a box axis clamps, the
circle wraps onto a slice padded with its first node).  The exhaustive scan
builds every post-step plan once per solve: the circle's angle, a qubit's x and
y per value of the one control each reads, a qubit's z per u_plus and u_minus
block, the last axis kept as its lower-node offsets and fractions.

Qubit grids are uniform over the cube [-1, 1]^3, node i of n at
(2i - (n - 1)) / (n - 1), with nodes outside the closed unit ball masked out
and stored as NaN; no ghost values are invented outside the ball, so
stencils shorten to one-sided at the mask edge.  Both qubit models are
invariant under px -> -px with u_plus -> -u_plus and under py -> -py with
u_minus -> -u_minus, so a qubit step computes only the symmetry cell, the
active nodes with px, py >= 0, and copies each other active node from its
mirror image there, flipping the control signs.  The angle model lives on a
uniform periodic grid over [-pi, pi), its own cell.  Each grid spec builds
its geometry once, from the mask alone: axes, active nodes, the cell and, on
first use, the fill plan that extends a slice past the mask and the
neighbour table, the flat index of each cell node and of its 2 dim axis
neighbours (wrapping on a periodic axis, one past the last node off the
grid).  Each step gathers its slice at the table once for the stencils and
feedback rule; interpolation and the fill read the whole slice.
Value functions persist to ``.vgrid`` files: one JSON header line, then the
value and control slices as little-endian float64 in row-major node order,
finite exactly on the active nodes.
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
    _angle_drift,
    _angle_gain,
    _counting_drift_xyz,
    _diffusive_diffusion_xyz,
    _diffusive_drift_xyz,
    _jump_intensity_z,
    diffusive_diffusion,
    diffusive_drift,
)
from .persist import atomic_write_bytes
from .trajectories import COUNTING, ModelRecord, _effort, model_from_id, model_record

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

# the FD stability bound: this share of a qubit step's monotonicity limit, and
# twice this share of the circle's (see `solve_backward`)
CFL_SAFETY = 0.25

# exhaustive DP evaluates this many control candidates (of one u_plus row on
# a qubit) per interpolation call: enough to amortize the per-call overhead,
# few enough that the queries stay a small multiple of the slice in memory
DP_BLOCK = 3

# extract_policy fills up to this many control slices per `_fill_inactive`
# call, and at most 1/16 of them, so the stack stays small beside the controls
FILL_BLOCK = 32


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
        """Node coordinates per axis: a periodic one leaves out its upper end, a
        bounded one is exactly antisymmetric, (2i - (n - 1)) / (n - 1) on [-1, 1]."""
        periodic = self.record.periodic
        return tuple(
            lo + (hi - lo) * np.arange(n) / n if periodic
            else 0.5 * (lo + hi) + 0.5 * (hi - lo) * (2 * np.arange(n) - (n - 1)) / (n - 1)
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
        image = np.arange(mask.size).reshape(mask.shape)
        signs = np.ones((self.n_controls,) + self.shape)
        # x mirrors flip u_plus, y mirrors u_minus; image ends at each node's image
        for ax in () if self.record.periodic else (0, 1):
            flipped = np.flip(image, ax)
            signs[ax][flipped > image] = -1.0
            image = np.maximum(image, flipped)
        cell = np.flatnonzero(mask.ravel() & (image.ravel() == np.arange(mask.size)))
        flat = self.points().reshape((-1,) + self.record.state_shape)[cell]
        rep, signs = np.searchsorted(cell, image[mask]), signs[:, mask].T
        for a in (mask, cell, flat, rep, signs):
            a.flags.writeable = False
        return _Geometry(self.axes(), self.spacings(), self.record.periodic, mask, cell, flat,
                         rep, signs)

    def control_values(self) -> np.ndarray | None:
        """Control grid for exhaustive minimization, None when unconfigured;
        exactly antisymmetric, box * (2i - (r - 1)) / (r - 1), and 0 for r = 1."""
        if self.control_box is None or self.control_resolution is None:
            return None
        r = self.control_resolution
        return self.control_box * (2 * np.arange(r) - (r - 1)) / max(r - 1, 1)


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


def _axis_offsets(dim: int) -> list:
    """The unit steps to a node's axis neighbours: axis by axis, +1 before -1."""
    return [step * unit for unit in np.eye(dim, dtype=int) for step in (1, -1)]


def _nb(g: np.ndarray, move=None) -> np.ndarray:
    """A gather's row at one (axis, +-1) move; none is the node."""
    return g[0] if move is None else g[1 + 2 * move[0] + (move[1] < 0)]


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


def _fill_inactive(values: np.ndarray, plan, stacked: bool = False) -> np.ndarray:
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
    With ``stacked``, ``values`` is a (k, *grid) stack whose k slices are
    filled together, one gather per neighbor slot and sweep.
    """
    filled = np.asarray(values, dtype=float)
    # nodes along axis 0 (a stack's slices along axis 1); one trailing row
    # of 0.0 stands in for every neighbor a sweep does not count
    nodes = filled.reshape(len(filled), -1).T if stacked else filled.ravel()
    ext = np.zeros((len(nodes) + 1,) + nodes.shape[1:])
    ext[:-1] = nodes
    for targets, neighbors, counts in plan:
        acc = np.zeros((targets.size,) + nodes.shape[1:])
        for slot in neighbors:
            acc += ext.take(slot, axis=0)
        ext[targets] = acc / (counts[:, None] if stacked else counts)
    return (ext[:-1].T if stacked else ext[:-1]).reshape(filled.shape)


def _fill_plan(missing: np.ndarray, good: np.ndarray) -> list:
    """Per sweep: target nodes, their neighbor slots and the neighbor counts.

    Flat indices; a slot whose neighbor is off the grid, or neither good
    nor filled by an earlier sweep, points at the sentinel one past the
    last node.  ``missing`` nodes are filled, ``good`` ones are read.
    """
    shape = missing.shape
    size = missing.size
    axis_offsets = _axis_offsets(len(shape))
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


def _axis_plan(geo, ax, q):
    """Axis ``ax`` of an interpolation plan at coordinates ``q``: (flat offset of
    the lower node, stride, (1 - frac, frac)); a box axis clamps ``q``, the
    circle (the angle grid's one axis) wraps it onto a `_wrapped` slice."""
    nodes = geo.axes[ax]
    stride = math.prod(a.size for a in geo.axes[ax + 1 :])
    if geo.periodic:
        f = (q - nodes[0]) / geo.spacings[ax]
        i0 = np.floor(f).astype(int)
        return np.mod(i0, nodes.size) * stride, stride, (1.0 - (f - i0), f - i0)
    f = np.empty(np.shape(q))  # a 0-d q stays an array, so out= takes it
    f = np.minimum(np.maximum(q, nodes[0], out=f), nodes[-1], out=f)
    f = np.divide(np.subtract(f, nodes[0], f), nodes[1] - nodes[0], f)
    i0 = f.astype(int)  # the floor of f >= 0; a NaN gives INT_MIN, clamped to 0
    i0 = np.minimum(np.maximum(i0, 0, out=i0), nodes.size - 2, out=i0)
    frac = np.minimum(np.subtract(f, i0, f), 1.0, out=f)  # f - i0 >= 0 already
    return i0 * stride, stride, (1.0 - frac, frac)


def _corners(plan):
    """Corner (weight, flat offset) pairs in bit order of a plan's axes,
    broadcast together: corner c sits at the upper node of axis ax when bit ax
    of c is set, and its weight multiplies in axis order.  The last axis is
    multiplied in as each corner is drawn, so half the weights are held."""
    *head, (_, stride, weights) = plan
    table = list(_corners(head)) if head else [(None, 0)]
    for bit in (0, 1):
        for w, off in table:
            yield (weights[bit] if w is None else w * weights[bit]), off + bit * stride


def _interp_plan(geo, pts):
    """The plan of queries at states (..., *state_shape): one `_axis_plan` per axis."""
    pts = np.asarray(pts, dtype=float)
    coords = (pts,) if geo.periodic else np.moveaxis(pts, -1, 0)
    return [_axis_plan(geo, ax, q) for ax, q in enumerate(coords)]


def _interp_apply(stack: np.ndarray, plan) -> np.ndarray:
    """Multilinear interpolation of each slice of a (k, *grid) stack on a uniform
    box grid at a plan's clamped queries: (*lead, k).  Per slice the corners are
    summed in bit order from zeros, bit for bit a read with one index array per
    axis; each corner's weight is formed once for all slices."""
    lin = sum(base for base, _, _ in plan)
    # slice c starts c grid sizes into the stack's flat buffer
    starts = np.arange(0, stack.size, stack[0].size).reshape((-1,) + (1,) * np.ndim(lin))
    lin = lin + starts
    flat = stack.ravel()
    out = np.zeros(lin.shape)
    for weight, off in _corners(plan):
        read = flat[off:].take(lin)
        read *= weight
        out += read
    return np.moveaxis(out, 0, -1)


def _interp_box(filled: np.ndarray, plan) -> np.ndarray:
    """`_interp_apply` on one slice: the solvers' reads."""
    return _interp_apply(filled[None], plan)[..., 0]


def _wrapped(geo, v: np.ndarray) -> np.ndarray:
    """A slice or stack as the plans read it: the circle padded by its wrap node."""
    return np.concatenate((v, v[..., :1]), axis=-1) if geo.periodic else v


def _interp_slice(geo, v: np.ndarray, pts) -> np.ndarray:
    """A solved slice read at states: extended past the mask, wrapped, interpolated."""
    return _interp_box(_wrapped(geo, _fill_inactive(v, geo.fill)), _interp_plan(geo, pts))


def _check_spec_params(spec: GridSpec, params: ModelParams) -> None:
    if abs(spec.horizon_T - params.horizon_T) > 1e-12 * params.horizon_T:
        raise ValueError(
            f"grid horizon {spec.horizon_T!r} differs from model horizon "
            f"{params.horizon_T!r}"
        )


@dataclass(frozen=True)
class _Geometry:
    """What the solvers read of one grid (see the module docstring): ``cell``,
    the flat indices of the nodes the solvers compute, and ``flat``, their
    coordinates; per active node, ``rep``, the position of its mirror image in
    the cell, and ``signs`` (m, c), its control signs (on the angle, all +1)."""

    axes: tuple
    spacings: tuple
    periodic: bool
    mask: np.ndarray
    cell: np.ndarray
    flat: np.ndarray
    rep: np.ndarray
    signs: np.ndarray

    @cached_property
    def fill(self) -> list:
        return _fill_plan(~self.mask, self.mask)

    @cached_property
    def neighbours(self) -> np.ndarray:
        """The cell's neighbour table, (1 + 2 dim, m): the node, then `_axis_offsets`."""
        dim = self.mask.ndim
        offsets = [np.zeros(dim, dtype=int), *_axis_offsets(dim)]
        return _neighbours(self.mask.shape, self.periodic, self.cell, offsets)

    def gather(self, v: np.ndarray) -> np.ndarray:
        """A slice, NaN off the mask, read at the neighbour table: (1 + 2 dim, m)."""
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


def _place(out: np.ndarray, geo: _Geometry, cell: np.ndarray) -> np.ndarray:
    """Mirror per-node values on the cell, (m,) or (m, c), onto a NaN slice's active
    nodes with one gather at ``rep``; controls take ``signs``."""
    active = cell[geo.rep]
    if active.ndim > 1:
        active *= geo.signs
    # one boolean write per component: out[:, mask] = active.T is slower
    for row, col in zip(out.reshape((-1,) + geo.mask.shape), active.reshape(len(active), -1).T):
        row[geo.mask] = col
    return out


def _dynamics(spec: GridSpec, params: ModelParams, geo: _Geometry):
    """(nodes, drift, sigma, lam): the model's controlled filter on the cell, the one
    place the solvers tell the models apart.  ``nodes`` holds the cell's coordinates
    one row per axis, and ``drift(*u)`` one row per axis at controls broadcasting
    against them; ``sigma`` holds the noise vector's rows, None on the counting
    qubit; ``lam`` is the intensity of the jumps to the ground state, None but on
    the counting qubit.  Both solvers read the drift only through ``drift``, once
    per solve.  The rows come from the unchecked encodings: the grid nodes and the
    solvers' controls are valid by construction."""
    nodes = geo.flat.reshape(len(geo.flat), -1).T.copy()
    if geo.periodic:
        return nodes, lambda b: (_angle_drift(b),), (_angle_gain(params.alpha),), None
    if spec.model == COUNTING:
        lam = _jump_intensity_z(nodes[2], params.kappa_s_sq)
        return nodes, lambda up, um: _counting_drift_xyz(*nodes, up, um, lam), None, lam
    sigma = _diffusive_diffusion_xyz(*nodes, params.kappa_s)
    return nodes, lambda up, um: _diffusive_drift_xyz(*nodes, up, um), sigma, None


def _sweep(spec: GridSpec, params: ModelParams, mode: str, step, lag: int) -> ValueGrid:
    """The one backward loop of both solvers, from the terminal cost.  From slice k,
    ``step`` returns the cell's values at slice k - 1 and a control, stored at
    slice k - lag: the slice the FD read (lag 0), the slice the DP wrote (lag 1).
    The one slice no step gives a control holds the central feedback read off its
    own gather.  Raises RuntimeError, naming slice and node, on a non-finite value."""
    geo, n_steps = spec._geometry, spec.n_steps
    values = np.full((n_steps + 1,) + spec.shape, np.nan)
    controls = np.full((n_steps + 1, spec.n_controls) + spec.shape, np.nan)
    _place(values[n_steps], geo, terminal_cost(spec.model, geo.flat))
    for k in range(n_steps, 0, -1):
        new, u = step(values[k])
        if not np.isfinite(new).all():
            at = np.unravel_index(geo.cell[np.argmin(np.isfinite(new))], geo.mask.shape)
            raise RuntimeError(f"non-finite value at slice {k - 1}, node {tuple(map(int, at))}")
        _place(values[k - 1], geo, new)
        _place(controls[k - lag], geo, u)
    free = lag * n_steps
    _place(controls[free], geo, _feedback(geo.gather(values[free]), spec, geo)[1])
    return ValueGrid(spec, params.kappa_s_sq, params.alpha, mode, values, controls)


# ---------------------------------------------------------------------------
# finite-difference solver


def solve_backward(spec: GridSpec, params: ModelParams) -> ValueGrid:
    """Explicit finite-difference sweep of the backward equation.

    It reads the model's dynamics from `_dynamics` and runs the backward loop
    that `solve_dp` runs too, with the feedback of each slice stored on it.
    A qubit step is monotone at fixed controls (raising a node lowers no new
    value) while delta * (sum_i |b_i| / h_i + rate) <= 1, with the noise rate
    of `_fd_step`; the bound takes CFL_SAFETY of that at the drift's
    worst-case box controls (zero control when unbounded).  The circle's step
    is monotone while delta sigma^2 <= h^2 and |b| h <= sigma^2; its bound is
    delta <= CFL_SAFETY h^2 / (sigma^2 / 2).  Raises ValueError when the bound
    fails and RuntimeError, naming slice and node, if a non-finite value
    appears anyway.
    """
    _check_spec_params(spec, params)
    return _sweep(spec, params, CLOSED_FORM, _fd_step(spec, params, spec._geometry), lag=0)


def _fd_step(spec: GridSpec, params: ModelParams, geo: _Geometry):
    """The FD step, ``step(v) -> (cell values at k - 1, feedback at k)`` from slice
    k, built after the stability check: the central slope and second difference
    on the circle; on a qubit upwind advection and rate * (mean of the reads
    through one plan per solve - v), of J at the ground state at the jump
    intensity, or at the node +- eps sigma at 1 / eps^2 with eps = sqrt(h): the
    semi-Lagrangian (1/2) sigma^T Hess sigma of Debrabant & Jakobsen (2013)."""
    _, drift, sigma, lam = _dynamics(spec, params, geo)
    spacings, delta, m, h = geo.spacings, spec.delta, len(geo.flat), min(geo.spacings)
    if geo.periodic:
        worst, scale = 0.5 * sigma[0] * sigma[0], h**2
    else:
        if lam is None:
            eps = math.sqrt(h)
            kick = eps * np.stack(sigma, axis=-1)
            at, rate = geo.flat + np.stack([kick, -kick]), 1.0 / eps**2
        else:
            at, rate = GROUND_STATE[None], lam
        reads = _interp_plan(geo, at)
        # the drift is affine in u, so per axis it strays furthest from b0 at a
        # corner of the box
        box = spec.control_box or 0.0
        b0 = np.stack(drift(0.0, 0.0))
        load = np.abs(b0) + sum(np.abs(np.stack(drift(*u)) - b0) for u in ((box, 0.0), (0.0, box)))
        load = np.sum(load / np.reshape(spacings, (-1, 1)), axis=0) + rate
        worst, scale = float(load.max()), 1.0
    bound = CFL_SAFETY * scale / worst if worst > 0.0 else math.inf
    if delta > bound:
        raise ValueError(
            f"time step {delta:.6g} violates the stability bound {bound:.6g}; "
            "increase n_steps or coarsen the grid"
        )

    def step(v):
        g = geo.gather(v)
        slope, u = _feedback(g, spec, geo)
        u = u.reshape(m, -1)
        b = drift(*u.T)
        effort = _effort(u)
        if geo.periodic:
            d2 = (_nb(g, (0, 1)) - 2.0 * _nb(g) + _nb(g, (0, -1))) / (h * h)
            rhs = effort + b[0] * slope + 0.5 * sigma[0] ** 2 * d2
        else:
            mean = np.mean(_interp_box(_fill_inactive(v, geo.fill), reads), axis=0)
            rhs = _advection_upwind(g, b, spacings) + rate * (mean - _nb(g)) + effort
        return _nb(g) + delta * rhs, u

    return step


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
    constant.  The slice must be finite and mirror-symmetric on the active
    nodes, as a solve's are: the step computes the symmetry cell.  What it
    holds on masked nodes is ignored.  Returns the new slice.
    """
    _check_spec_params(spec, params)
    if spec.n_steps < 1:
        raise ValueError("dp_recursion_step needs n_steps >= 1 for a positive delta")
    values = np.asarray(values, dtype=float)
    if values.shape != spec.shape:
        raise ValueError(f"slice must have shape {spec.shape}, got {values.shape}")
    geo = spec._geometry
    if not np.isfinite(values[geo.mask]).all():
        raise ValueError("slice must be finite on the active nodes")
    if not np.array_equal(values[geo.mask], values.ravel()[geo.cell][geo.rep]):
        raise ValueError("slice must be symmetric under the mirrors px -> -px and py -> -py")
    # the solvers' slices are NaN exactly off the mask
    best = _dp_step(spec, params, geo, mode)(np.where(geo.mask, values, np.nan))[0]
    return _place(np.full(spec.shape, np.nan), geo, best)


def _dp_step(spec: GridSpec, params: ModelParams, geo: _Geometry, mode: str):
    """The DP step, ``step(v) -> (cell values at k - 1, control (m, c))`` from slice
    k, built once per solve from the FD's reading of the dynamics (`_dynamics`),
    after the mode check and the refusal of delta * max jump intensity >= 1.
    ``plan(c, b)`` is axis c's post-step plan from its drift b: the drifted node
    +- the Wiener kick sigma sqrt(delta), or the drifted node beside the jump to
    the ground state.  A step fills the slice and reads the ground state once,
    and ``cost(effort, plans)`` is effort * delta plus the mean over the kicks, or
    over the Bernoulli pair, of what the plans read: at the limited
    completed-squares control, or minimized over the control grid, DP_BLOCK
    candidates a read.  The scan's plans do not depend on the slice, so all are
    built here, the last axis's (z on a qubit) as (offset, 1, frac) with offsets
    in the narrowest type indexing every node; each read re-forms its weights."""
    if mode not in CONTROL_MODES:
        raise ValueError(f"mode must be one of {CONTROL_MODES}")
    grid = spec.control_values()
    if mode == EXHAUSTIVE and grid is None:
        raise ValueError("exhaustive mode needs control_box and control_resolution")
    nodes, drift, sigma, lam = _dynamics(spec, params, geo)
    m, delta = len(geo.flat), spec.delta
    if lam is None:
        kick = [s * np.sqrt(delta) for s in sigma]
    elif delta * float(lam.max()) >= 1.0:
        raise ValueError("delta * max jump intensity >= 1; increase n_steps")
    else:
        stay, ground = 1.0 - lam * delta, _interp_plan(geo, GROUND_STATE)

    def plan(c, b):
        drifted = nodes[c] + b * delta
        if lam is not None:
            return _axis_plan(geo, c, drifted[None])
        q = np.empty((2,) + drifted.shape)
        np.add(drifted, kick[c], out=q[0])
        np.subtract(drifted, kick[c], out=q[1])
        return _axis_plan(geo, c, q)

    def reader(v):
        filled = _wrapped(geo, _fill_inactive(v, geo.fill))
        jumped = None if lam is None else lam * delta * float(_interp_box(filled, ground))

        def cost(effort, plans):
            r = _interp_box(filled, plans)
            return effort * delta + (0.5 * (r[0] + r[1]) if lam is None else stay * r[0] + jumped)

        return cost

    if mode == CLOSED_FORM:
        def step(v):
            u = _feedback(geo.gather(v), spec, geo, limited=True)[1].reshape(m, -1)
            b = drift(*u.T)
            return reader(v)(_effort(u), [plan(c, row) for c, row in enumerate(b)]), u

        return step
    cands = np.stack(np.meshgrid(*(grid,) * spec.n_controls, indexing="ij"), axis=-1)
    cands = cands.reshape(-1, spec.n_controls)
    effort = _effort(cands)[:, None]
    # candidate blocks in meshgrid order as (start, n, plans): u_plus rows
    # (1, 1) broadcast against u_minus blocks (B, 1), and the circle's blocks
    # (B, 1) against the (m,) nodes
    rows, starts = grid[:, None, None], range(0, len(grid), DP_BLOCK)
    blocks = [grid[s : s + DP_BLOCK, None] for s in starts]

    def last(b):
        base, stride, (_, frac) = plan(len(geo.axes) - 1, b)
        return base.astype(np.min_scalar_type(geo.axes[-1].size - 1)), stride, frac

    if geo.periodic:
        scan = [(s, len(u), [last(drift(u)[0])]) for s, u in zip(starts, blocks)]
    else:
        x_plans = [plan(0, drift(u, 0.0)[0]) for u in rows]
        y_plans = [plan(1, drift(0.0, u)[1]) for u in blocks]
        scan = [(i * len(grid) + s, len(um), [xp, yp, last(drift(up, um)[2])])
                for i, (up, xp) in enumerate(zip(rows, x_plans))
                for s, um, yp in zip(starts, blocks, y_plans)]

    def step(v):
        cost = reader(v)
        best = np.full(m, np.inf)
        best_k = np.zeros(m, dtype=int)
        better = np.empty(m, dtype=bool)
        # the strict < keeps the first of equal values in meshgrid order
        for start, n, (*head, (base, stride, frac)) in scan:
            plans = [*head, (base, stride, (1.0 - frac, frac))]
            for k, val in enumerate(cost(effort[start : start + n], plans), start):
                np.less(val, best, out=better)
                np.copyto(best, val, where=better)
                np.copyto(best_k, k, where=better)
        return best, cands[best_k]

    return step


def solve_dp(spec: GridSpec, params: ModelParams, mode: str = CLOSED_FORM) -> ValueGrid:
    """Full backward dynamic-programming sweep (see dp_recursion_step): the
    backward loop of `solve_backward` over the step `_dp_step` builds once, with
    each step's control stored on the slice it wrote and the terminal slice's
    read off its own gather."""
    _check_spec_params(spec, params)
    return _sweep(spec, params, mode, _dp_step(spec, params, spec._geometry, mode), lag=1)


# ---------------------------------------------------------------------------
# policy extraction


def extract_policy(vg: ValueGrid):
    """Feedback policy (t, state) -> control interpolated from a solved grid.

    Time picks the nearest stored slice, read through the one per-axis plan:
    a qubit state is clamped into the cube, and an angle wraps onto the one
    slice it reads, padded with its first node.  Only the controls on the
    active nodes are read: masked nodes are filled from them by repeated
    neighbor averaging (`_fill_inactive`, one plan per grid, FILL_BLOCK
    slices at a time into one array the size of the controls), so queries
    near the sphere stay finite.  Queries with t outside [0, T] or at a
    non-finite state raise ValueError.  The returned callable accepts
    batched states.
    """
    spec = vg.spec
    n_steps = spec.n_steps
    horizon = spec.horizon_T
    delta = spec.delta
    tol = 1e-9 * max(horizon, 1.0)

    def slice_index(t: float) -> int:
        t = float(t)
        if not -tol <= t <= horizon + tol:
            raise ValueError(f"policy query at t={t!r} outside [0, {horizon}]")
        if n_steps == 0:
            return 0
        return min(n_steps, max(0, int(np.floor(t / delta + 0.5))))

    geo = spec._geometry
    filled = vg.controls
    if geo.fill:  # some node is masked
        filled = np.empty(vg.controls.shape)
        out, controls = (a.reshape((-1,) + spec.shape) for a in (filled, vg.controls))
        step = max(1, min(FILL_BLOCK, len(controls) // 16))
        for lo in range(0, len(controls), step):
            out[lo : lo + step] = _fill_inactive(controls[lo : lo + step], geo.fill, stacked=True)

    def policy(t, state):
        k = slice_index(t)
        # the plan would cast a NaN to an index with a warning and read NaN
        if not np.isfinite(state).all():
            raise ValueError(f"policy query at t={t!r} at a non-finite state")
        # one plan serves every component; only the slice read is wrapped
        u = _interp_apply(_wrapped(geo, filled[k]), _interp_plan(geo, state))
        return u.reshape(u.shape[:-1] + spec.record.control_shape)

    return policy
