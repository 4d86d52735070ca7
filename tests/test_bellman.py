"""Tests for the grid solvers: pointwise formulas, stencils, sweeps, files."""

import dataclasses
import hashlib
import json
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from qubitfeedback import bellman as bm
from qubitfeedback import filters
from qubitfeedback import trajectories as tj
from qubitfeedback.filters import (
    GROUND_STATE,
    ModelParams,
    diffusive_diffusion,
    diffusive_drift,
    counting_drift,
    jump_intensity,
)
from qubitfeedback.lq import optimal_B, value

QUBIT = ModelParams(kappa_s_sq=1.0, kappa_f_sq=0.0, horizon_T=1.0)
ANGLE = ModelParams(alpha=0.5, horizon_T=1.0)


# ---------------------------------------------------------------------------
# pointwise formulas


def test_terminal_cost_values():
    assert bm.terminal_cost("diffusive", [0.0, 0.0, 1.0]) == 0.0
    assert bm.terminal_cost("counting", [0.0, 0.0, -1.0]) == 2.0
    assert bm.terminal_cost("diffusive", [0.3, -0.4, 0.5]) == pytest.approx(0.5)
    assert bm.terminal_cost("angle", 0.7) == pytest.approx(0.49)
    batch = bm.terminal_cost("diffusive", np.zeros((4, 5, 3)))
    assert batch.shape == (4, 5)
    with pytest.raises(ValueError):
        bm.terminal_cost("nope", 0.0)
    with pytest.raises(ValueError):
        bm.terminal_cost("diffusive", np.zeros(4))


def test_optimal_controls_frozen_examples():
    u = bm.optimal_controls_from_gradient([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(u, [1.0, 0.0])
    u = bm.optimal_controls_from_gradient([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(u, [-1.0, 0.0])
    # gradient of the terminal cost is (0, 0, -1): u = (px, -py)
    p = np.array([0.3, -0.2, 0.4])
    u = bm.optimal_controls_from_gradient(p, [0.0, 0.0, -1.0])
    np.testing.assert_allclose(u, [0.3, 0.2])
    u = bm.optimal_controls_from_gradient([0.0, 0.0, 1.0], [3.0, 4.0, 0.0], control_box=2.0)
    np.testing.assert_allclose(u, [2.0, -2.0])


def test_controls_minimize_the_control_hamiltonian():
    rng = np.random.default_rng(3)
    grid = np.linspace(-5.0, 5.0, 101)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, 3) * 0.57
        g = rng.normal(size=3)

        def objective(u_plus, u_minus):
            u = np.stack(np.broadcast_arrays(u_plus, u_minus), axis=-1)
            pp = np.broadcast_to(p, u.shape[:-1] + (3,))
            drift = diffusive_drift(pp, u)
            return u_plus**2 + u_minus**2 + np.einsum("...i,i->...", drift, g)

        best = bm.optimal_controls_from_gradient(p, g)
        assert objective(best[0], best[1]) <= objective(uu, vv).min() + 1e-12
        clamped = bm.optimal_controls_from_gradient(p, g, control_box=1.5)
        small = np.linspace(-1.5, 1.5, 101)
        su, sv = np.meshgrid(small, small, indexing="ij")
        assert objective(clamped[0], clamped[1]) <= objective(su, sv).min() + 1e-12


def test_hjb_rhs_frozen_examples():
    # J = 1 - pz at the origin: drift term alone gives +1
    rhs = bm.hjb_rhs_diffusive(
        np.zeros(3), [0.0, 0.0, -1.0], np.zeros((3, 3)), QUBIT
    )
    assert rhs == pytest.approx(1.0)
    # pure second derivative at the excited state: sigma = (2, 0, 0)
    hess = np.zeros((3, 3))
    hess[0, 0] = 1.0
    rhs = bm.hjb_rhs_diffusive([0.0, 0.0, 1.0], np.zeros(3), hess, QUBIT)
    assert rhs == pytest.approx(2.0)


def test_hjb_rhs_matches_inline_assembly():
    rng = np.random.default_rng(11)
    params = ModelParams(kappa_s_sq=0.7, horizon_T=1.0)
    for _ in range(25):
        p = rng.uniform(-1.0, 1.0, 3) * 0.57
        g = rng.normal(size=3)
        h = rng.normal(size=(3, 3))
        h = 0.5 * (h + h.T)
        u = bm.optimal_controls_from_gradient(p, g)
        sigma = diffusive_diffusion(p, params)
        expect = (
            diffusive_drift(p, u) @ g
            + 0.5 * sigma @ h @ sigma
            + u @ u
        )
        got = bm.hjb_rhs_diffusive(p, g, h, params)
        np.testing.assert_allclose(got, expect, atol=1e-12)


def test_hjb_rhs_boxed_matches_brute_force():
    rng = np.random.default_rng(5)
    box = 1.5
    grid = np.linspace(-box, box, 201)
    uu, vv = np.meshgrid(grid, grid, indexing="ij")
    u_all = np.stack([uu, vv], axis=-1)
    for _ in range(10):
        p = rng.uniform(-1.0, 1.0, 3) * 0.57
        g = rng.normal(size=3)
        h = rng.normal(size=(3, 3))
        h = 0.5 * (h + h.T)
        sigma = diffusive_diffusion(p, QUBIT)
        pp = np.broadcast_to(p, u_all.shape[:-1] + (3,))
        objective = (
            np.sum(u_all**2, axis=-1)
            + np.einsum("...i,i->...", diffusive_drift(pp, u_all), g)
            + 0.5 * sigma @ h @ sigma
        )
        brute = objective.min()
        got = bm.hjb_rhs_diffusive(p, g, h, QUBIT, control_box=box)
        # exact clamp can only improve on the control grid
        assert got <= brute + 1e-12
        assert got >= brute - 2e-4


def test_diffusion_quadratic_form_assembles_both_ways():
    rng = np.random.default_rng(17)
    p = rng.uniform(-1.0, 1.0, (200, 3)) * 0.57
    v = rng.normal(size=(200, 3))
    sigma = diffusive_diffusion(p, QUBIT)
    outer = np.einsum("ni,nj->nij", sigma, sigma)
    quad = np.einsum("ni,nij,nj->n", v, outer, v)
    direct = np.einsum("ni,ni->n", sigma, v) ** 2
    np.testing.assert_allclose(quad, direct, atol=1e-10)


# ---------------------------------------------------------------------------
# grid geometry


def test_gridspec_validation():
    with pytest.raises(ValueError):
        bm.GridSpec(model="nope", n_nodes=(5, 5, 5), n_steps=1, horizon_T=1.0)
    with pytest.raises(ValueError):
        bm.GridSpec(model="diffusive", n_nodes=(5, 5), n_steps=1, horizon_T=1.0)
    with pytest.raises(ValueError):
        bm.GridSpec(model="diffusive", n_nodes=(5, 2, 5), n_steps=1, horizon_T=1.0)
    with pytest.raises(ValueError):
        bm.GridSpec(model="angle", n_nodes=(5,), n_steps=-1, horizon_T=1.0)
    with pytest.raises(ValueError):
        bm.GridSpec(model="angle", n_nodes=(5,), n_steps=1, horizon_T=0.0)
    with pytest.raises(ValueError):
        bm.GridSpec(model="angle", n_nodes=(5,), n_steps=1, horizon_T=1.0,
                    control_resolution=9)
    # counts are never truncated: 21.7 nodes or 2.5 control points are refused
    for nodes in (21.7, (5, 5.5, 5), np.inf, np.nan):
        with pytest.raises(ValueError, match=r"^n_nodes must be integers"):
            bm.GridSpec(model="diffusive", n_nodes=nodes, n_steps=1, horizon_T=1.0)
    for steps in (2.5, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"^n_steps must be a nonnegative integer"):
            bm.GridSpec(model="angle", n_nodes=(5,), n_steps=steps, horizon_T=1.0)
    for res in (2.5, 0, np.inf):
        with pytest.raises(ValueError, match=rf"^control_resolution must be an integer >= 1, got {res}$"):
            bm.GridSpec(model="angle", n_nodes=(5,), n_steps=1, horizon_T=1.0,
                        control_box=1.0, control_resolution=res)
    spec = bm.GridSpec(model="diffusive", n_nodes=7, n_steps=10, horizon_T=0.2)
    assert spec.n_nodes == (7, 7, 7)
    spec = bm.GridSpec(model="angle", n_nodes=(np.int64(9),), n_steps=1, horizon_T=1.0,
                       control_box=1.0, control_resolution=np.int64(3))
    assert spec.n_nodes == (9,) and type(spec.n_nodes[0]) is int
    assert spec.control_resolution == 3 and type(spec.control_resolution) is int
    assert bm.GridSpec(model="angle", n_nodes=(9,), n_steps=0, horizon_T=1.0).delta == 0.0


def test_active_mask_is_the_unit_ball():
    spec = bm.GridSpec(model="diffusive", n_nodes=(21,) * 3, n_steps=1, horizon_T=1.0)
    mask = spec.active_mask()
    pts = spec.points()
    norms = np.linalg.norm(pts, axis=-1)
    assert mask[10, 10, 10]
    assert mask[20, 10, 10] and mask[10, 10, 0]
    assert not mask[0, 0, 0]
    assert (norms[mask] <= 1.0 + 1e-9).all()
    assert (norms[~mask] > 1.0).all()
    # convexity: the active nodes along any axis form one contiguous run
    runs = np.diff(mask.astype(int), axis=0)
    assert ((runs == 1).sum(axis=0) <= 1).all()
    assert ((runs == -1).sum(axis=0) <= 1).all()


# ---------------------------------------------------------------------------
# value files


def _small_grid():
    spec = bm.GridSpec(model="counting", n_nodes=(5, 5, 5), n_steps=3,
                       horizon_T=0.003, control_box=2.0, control_resolution=5)
    params = ModelParams(kappa_s_sq=1.0, kappa_f_sq=0.0, horizon_T=0.003)
    return bm.solve_backward(spec, params)


def test_vgrid_round_trip(tmp_path):
    vg = _small_grid()
    path = tmp_path / "small.vgrid"
    vg.save(path)
    back = bm.ValueGrid.load(path)
    assert back.spec == vg.spec
    assert back.control_mode == vg.control_mode
    assert back.kappa_s_sq == vg.kappa_s_sq
    np.testing.assert_array_equal(back.values, vg.values)
    np.testing.assert_array_equal(back.controls, vg.controls)


def test_vgrid_rejects_corruption(tmp_path):
    vg = _small_grid()
    path = tmp_path / "small.vgrid"
    vg.save(path)
    raw = path.read_bytes()

    truncated = tmp_path / "short.vgrid"
    truncated.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="payload"):
        bm.ValueGrid.load(truncated)

    garbage = tmp_path / "garbage.vgrid"
    garbage.write_bytes(b"\x80\x81 not json\n" + raw)
    with pytest.raises(ValueError, match="vgrid"):
        bm.ValueGrid.load(garbage)

    header = json.loads(raw[: raw.find(b"\n")])
    header["format"] = "other"
    wrong = tmp_path / "wrong.vgrid"
    wrong.write_bytes(json.dumps(header).encode() + raw[raw.find(b"\n"):])
    with pytest.raises(ValueError, match="format"):
        bm.ValueGrid.load(wrong)

    header["format"] = "vgrid"
    header["version"] = 99
    newer = tmp_path / "newer.vgrid"
    newer.write_bytes(json.dumps(header).encode() + raw[raw.find(b"\n"):])
    with pytest.raises(ValueError, match="version"):
        bm.ValueGrid.load(newer)

    header["version"] = 1
    del header["kappa_s_sq"]
    partial = tmp_path / "partial.vgrid"
    partial.write_bytes(json.dumps(header).encode() + raw[raw.find(b"\n"):])
    with pytest.raises(ValueError, match="kappa_s_sq"):
        bm.ValueGrid.load(partial)

    # fields of the wrong JSON type, and geometry that contradicts the model
    for key, value in MALFORMED_HEADER_FIELDS:
        header = json.loads(raw[: raw.find(b"\n")])
        header[key] = value
        malformed = tmp_path / f"malformed-{key}.vgrid"
        malformed.write_bytes(json.dumps(header).encode() + raw[raw.find(b"\n"):])
        with pytest.raises(ValueError, match=key):
            bm.ValueGrid.load(malformed)


def _edit_payload(src, dst, array, index, value):
    # one float64 of a saved grid overwritten in place, as a hand edit would
    vg = bm.ValueGrid.load(src)
    raw = bytearray(src.read_bytes())
    at = raw.index(b"\n") + 1
    if array == "controls":
        at += 8 * vg.values.size
    at += 8 * int(np.ravel_multi_index(index, getattr(vg, array).shape))
    raw[at : at + 8] = np.array(value, dtype="<f8").tobytes()
    dst.write_bytes(bytes(raw))


@pytest.mark.parametrize("array, index, value, where", [
    ("controls", (1, 0, 2, 2, 2), np.nan, "active"),
    ("values", (2, 2, 2, 3), np.inf, "active"),
    ("values", (0, 0, 0, 0), 3.0, "masked"),
])
def test_vgrid_load_rejects_a_payload_not_finite_exactly_on_the_ball(
        tmp_path, array, index, value, where):
    # the fill extends a slice from the active nodes alone, so a file with a
    # hole on the ball, or a number off it, is refused instead of smoothed
    good = tmp_path / "small.vgrid"
    _small_grid().save(good)
    bad = tmp_path / "edited.vgrid"
    _edit_payload(good, bad, array, index, value)
    with pytest.raises(ValueError) as info:
        bm.ValueGrid.load(bad)
    assert str(info.value) == (
        f"{bad}: {array} slice {index[0]} must be finite exactly on the active nodes, "
        f"but holds {value!r} at {where} index {index[1:]}"
    )


MALFORMED_HEADER_FIELDS = (
    ("horizon_T", None),
    ("n_nodes", 16),
    ("n_nodes", [5, "5", 5]),
    ("delta", None),
    ("delta", float("nan")),
    ("kappa_s_sq", None),
    ("n_steps", None),
    ("n_steps", True),
    ("model", ["x"]),
    ("control_box", "2"),
    ("bounds", [[-2.0, 2.0]] * 3),
    ("periodic", [True] * 3),
    ("n_controls", 1),
)


def _header_and_payload(path):
    raw = path.read_bytes()
    newline = raw.index(b"\n") + 1
    return raw[:newline], raw[newline:]


@pytest.mark.parametrize("extra", [1, 8])
def test_vgrid_rejects_a_payload_too_long(tmp_path, extra):
    good = tmp_path / "small.vgrid"
    _small_grid().save(good)
    header, payload = _header_and_payload(good)
    long = tmp_path / "long.vgrid"
    long.write_bytes(header + payload + b"\0" * extra)
    with pytest.raises(ValueError) as info:
        bm.ValueGrid.load(long)
    assert str(info.value) == (
        f"{long}: payload is {len(payload) + extra} bytes, expected {len(payload)}"
    )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_vgrid_loads_from_a_pipe_and_counts_its_payload(tmp_path):
    # a pipe has no size up front: it is read whole before it is measured,
    # so a huge header over a short pipe is refused like a short file
    good = tmp_path / "small.vgrid"
    vg = _small_grid()
    vg.save(good)
    raw = good.read_bytes()
    _, payload = _header_and_payload(good)
    pipe = tmp_path / "pipe.vgrid"
    os.mkfifo(pipe)

    def load_through_pipe(data):
        writer = threading.Thread(target=pipe.write_bytes, args=(data,), daemon=True)
        writer.start()
        try:
            return bm.ValueGrid.load(pipe)
        finally:
            writer.join(timeout=10)
            assert not writer.is_alive()

    back = load_through_pipe(raw)
    np.testing.assert_array_equal(back.values, vg.values)
    np.testing.assert_array_equal(back.controls, vg.controls)
    for data, size in ((raw + bytes(8), len(payload) + 8), (raw[:-8], len(payload) - 8)):
        with pytest.raises(ValueError) as info:
            load_through_pipe(data)
        assert str(info.value) == f"{pipe}: payload is {size} bytes, expected {len(payload)}"

    header = json.loads(raw[: raw.index(b"\n")])
    header.update(n_nodes=[2001] * 3, n_steps=10**6, delta=header["horizon_T"] / 10**6)
    with pytest.raises(ValueError, match="payload is 16 bytes"):
        load_through_pipe(json.dumps(header).encode() + b"\n" + bytes(16))


def test_vgrid_rejects_a_file_without_a_header_newline(tmp_path):
    good = tmp_path / "small.vgrid"
    _small_grid().save(good)
    header, _ = _header_and_payload(good)
    for name, raw in (("empty", b""), ("header-only", header[:-1])):
        bad = tmp_path / f"{name}.vgrid"
        bad.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            bm.ValueGrid.load(bad)
        assert str(info.value) == f"{bad}: not a .vgrid file (no header line)"


def test_vgrid_refuses_a_huge_header_over_a_tiny_payload_before_allocating(tmp_path):
    # the header alone would size the arrays at about 1.9e17 bytes
    good = tmp_path / "small.vgrid"
    _small_grid().save(good)
    header = json.loads(_header_and_payload(good)[0])
    header.update(n_nodes=[2001] * 3, n_steps=10**6,
                  delta=header["horizon_T"] / 10**6)
    want = 8 * (10**6 + 1) * 3 * 2001**3
    huge = tmp_path / "huge.vgrid"
    huge.write_bytes(json.dumps(header).encode() + b"\n" + bytes(16))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            bm.ValueGrid.load(huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"{huge}: payload is 16 bytes, expected {want}"
    assert peak < 1 << 20


# a counting grid of 13^3 nodes and 121 slices: 6.4 MB of payload, so the
# gates below read the copies of the payload, not fixed overheads
@pytest.fixture(scope="module")
def counting_grid():
    spec = bm.GridSpec(model="counting", n_nodes=13, n_steps=120, horizon_T=0.5,
                       control_box=1.0)
    mask = spec.active_mask()
    rng = np.random.default_rng(0)
    values = np.where(mask, rng.random((121,) + spec.shape), np.nan)
    controls = np.where(mask, rng.uniform(-1.0, 1.0, (121, 2) + spec.shape), np.nan)
    return bm.ValueGrid(spec, 0.5, 0.0, bm.CLOSED_FORM, values, controls)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_vgrid_save_holds_the_payload_once(tmp_path, counting_grid):
    payload = counting_grid.values.nbytes + counting_grid.controls.nbytes
    path = tmp_path / "g.vgrid"
    _, peak = _traced_peak(lambda: counting_grid.save(path))
    assert path.stat().st_size > payload
    assert peak <= 1.1 * payload


def test_vgrid_load_reads_the_payload_once(tmp_path, counting_grid):
    # beyond the arrays, only the finiteness check's blocks of bools
    payload = counting_grid.values.nbytes + counting_grid.controls.nbytes
    path = tmp_path / "g.vgrid"
    counting_grid.save(path)
    back, peak = _traced_peak(lambda: bm.ValueGrid.load(path))
    np.testing.assert_array_equal(back.values, counting_grid.values)
    np.testing.assert_array_equal(back.controls, counting_grid.controls)
    assert peak <= 1.1 * payload + 2 * (1 << 20)


def test_extract_policy_fills_the_controls_in_one_array(counting_grid):
    _, peak = _traced_peak(lambda: bm.extract_policy(counting_grid))
    assert peak <= 1.2 * counting_grid.controls.nbytes


# sha256 of the .vgrid bytes of every solver on one small grid per model.
# The angle digests were recorded before the per-model record replaced the
# model branches in the solvers and the file header; the qubit ones when the
# qubit solvers began to compute one symmetry cell and mirror it, on exactly
# antisymmetric axes (at 7 nodes np.linspace is not).
PINNED_VGRID_CASES = {
    "diffusive": (
        dict(n_nodes=7, n_steps=10, horizon_T=0.1, control_box=1.0,
             control_resolution=3),
        ModelParams(kappa_s_sq=0.5, horizon_T=0.1),
    ),
    "counting": (
        dict(n_nodes=(7, 6, 7), n_steps=10, horizon_T=0.1, control_box=1.0,
             control_resolution=3),
        ModelParams(kappa_s_sq=0.8, horizon_T=0.1),
    ),
    "angle": (
        dict(n_nodes=32, n_steps=20, horizon_T=0.2, control_box=2.0,
             control_resolution=9),
        ModelParams(alpha=0.5, horizon_T=0.2),
    ),
}

PINNED_VGRIDS = {
    ("diffusive", "fd"): "5b23f227d33a0abd547a2590f3dc7357027595234f104a1e318ce536ab1c8673",
    ("diffusive", "closed-form"): "da0b0c742e8e1cf8202bbab6625f2ee6a08e5abd6393978dce2e6b596635833f",
    ("diffusive", "exhaustive"): "dea495392d0d61e413b601ceccc19cc3aab35bc54bef501e2a16505ad8a74174",
    ("counting", "fd"): "2434753f4b4b873caac9ffe6b4aa512b6d108d320f38ad95896486ec8156ee64",
    ("counting", "closed-form"): "3631815ca08779ed284736f7c5e104a0d512130a11602b7684a8a85b7ea5c610",
    ("counting", "exhaustive"): "a73f7470d6e37cbd8baeba1f88af501a16a75c60d5cacfea52c5e2413c565a1c",
    ("angle", "fd"): "3b885976fc314cc2d95fe58d863f877dba9b6c0b0fd9a944271c88c3f7a7b19e",
    ("angle", "closed-form"): "1076ee1ea12afbaeec940ad1897aa024e295d9942d7297d28b5e4d9ad87b0c10",
    ("angle", "exhaustive"): "a64d8bfb1a009ff9635fb123d2cc499e83e137f9fd8ddf8b8a1659f2d4eabd1e",
}


def _vgrid_digest(tmp_path, model, solver):
    spec_kwargs, params = PINNED_VGRID_CASES[model]
    spec = bm.GridSpec(model=model, **spec_kwargs)
    if solver == "fd":
        vg = bm.solve_backward(spec, params)
    else:
        vg = bm.solve_dp(spec, params, mode=solver)
    path = tmp_path / f"{model}-{solver}.vgrid"
    vg.save(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model, solver", sorted(PINNED_VGRIDS))
def test_vgrid_bytes_are_pinned(tmp_path, model, solver):
    assert _vgrid_digest(tmp_path, model, solver) == PINNED_VGRIDS[model, solver]


# ---------------------------------------------------------------------------
# dynamic-programming recursion


def test_dp_one_step_angle_matches_exact():
    # from the terminal slice, one step of the recursion has a closed form:
    # J1(theta) = theta^2 / (1 + 4 delta) + 4 alpha^2 delta
    spec = bm.GridSpec(model="angle", n_nodes=(201,), n_steps=100, horizon_T=1.0,
                       control_box=20.0, control_resolution=801)
    theta = spec.axes()[0]
    delta = spec.delta
    exact = theta**2 / (1.0 + 4.0 * delta) + 4.0 * ANGLE.alpha**2 * delta
    sel = np.abs(theta) <= 2.0
    for mode in (bm.CLOSED_FORM, bm.EXHAUSTIVE):
        out = bm.dp_recursion_step(theta**2, spec, ANGLE, mode)
        assert np.abs(out[sel] - exact[sel]).max() < 1e-3


def _reference_trilinear(filled, axes, q):
    # independent scalar reimplementation used as the oracle
    idx, frac = [], []
    for ax in range(3):
        nodes = axes[ax]
        h = nodes[1] - nodes[0]
        f = (min(max(q[ax], nodes[0]), nodes[-1]) - nodes[0]) / h
        i0 = min(int(np.floor(f)), nodes.size - 2)
        idx.append(i0)
        frac.append(f - i0)
    total = 0.0
    for corner in range(8):
        w = 1.0
        at = []
        for ax in range(3):
            bit = (corner >> ax) & 1
            at.append(idx[ax] + bit)
            w *= frac[ax] if bit else 1.0 - frac[ax]
        total += w * filled[tuple(at)]
    return total


def test_dp_one_step_qubit_matches_scalar_reference():
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.1)
    rng = np.random.default_rng(2)
    for model in ("diffusive", "counting"):
        spec = bm.GridSpec(model=model, n_nodes=(9, 9, 9), n_steps=10,
                           horizon_T=0.1, control_box=1.0, control_resolution=5)
        axes = spec.axes()
        mask = spec.active_mask()
        terminal = np.where(mask, 1.0 - spec.points()[..., 2], np.nan)
        stepped = bm.dp_recursion_step(terminal, spec, params, bm.EXHAUSTIVE)
        filled = bm._fill_inactive(terminal, bm._fill_plan(~mask, mask))
        delta = spec.delta
        controls = spec.control_values()
        for _ in range(5):
            node = tuple(rng.integers(2, 7, size=3))
            if not mask[node]:
                continue
            p = np.array([axes[ax][node[ax]] for ax in range(3)])
            best = np.inf
            for up in controls:
                for um in controls:
                    u = np.array([up, um])
                    if model == "counting":
                        lam = jump_intensity(p, params)
                        drift = counting_drift(p, u, params)
                        nxt = np.clip(p + drift * delta, -1.0, 1.0)
                        ground = _reference_trilinear(filled, axes, GROUND_STATE)
                        val = (1.0 - lam * delta) * _reference_trilinear(filled, axes, nxt)
                        val += lam * delta * ground
                    else:
                        drift = diffusive_drift(p, u)
                        kick = diffusive_diffusion(p, params) * np.sqrt(delta)
                        mid = p + drift * delta
                        val = 0.5 * (
                            _reference_trilinear(filled, axes, np.clip(mid + kick, -1, 1))
                            + _reference_trilinear(filled, axes, np.clip(mid - kick, -1, 1))
                        )
                    val += (up**2 + um**2) * delta
                    best = min(best, val)
            assert stepped[node] == pytest.approx(best, abs=1e-12)


def test_dp_step_validation():
    spec = bm.GridSpec(model="angle", n_nodes=(9,), n_steps=0, horizon_T=1.0)
    with pytest.raises(ValueError, match="n_steps"):
        bm.dp_recursion_step(np.zeros(9), spec, ANGLE)
    spec = bm.GridSpec(model="angle", n_nodes=(9,), n_steps=4, horizon_T=1.0)
    with pytest.raises(ValueError, match="mode"):
        bm.dp_recursion_step(np.zeros(9), spec, ANGLE, mode="fancy")
    with pytest.raises(ValueError, match="control_box"):
        bm.dp_recursion_step(np.zeros(9), spec, ANGLE, mode=bm.EXHAUSTIVE)
    with pytest.raises(ValueError, match="shape"):
        bm.dp_recursion_step(np.zeros(8), spec, ANGLE)
    # jump probability per step must stay below one
    spec = bm.GridSpec(model="counting", n_nodes=(5, 5, 5), n_steps=1, horizon_T=2.0)
    params = ModelParams(kappa_s_sq=1.0, kappa_f_sq=0.0, horizon_T=2.0)
    terminal = np.where(spec.active_mask(), 0.0, np.nan)
    with pytest.raises(ValueError, match="intensity"):
        bm.dp_recursion_step(terminal, spec, params)


def test_dp_step_rejects_nonfinite_active_values():
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.1)
    spec = bm.GridSpec(model="diffusive", n_nodes=(7, 7, 7), n_steps=2,
                       horizon_T=0.1, control_box=1.0, control_resolution=3)
    terminal = np.where(spec.active_mask(), 1.0 - spec.points()[..., 2], np.nan)
    for bad in (np.nan, np.inf):
        values = terminal.copy()
        values[3, 3, 3] = bad
        for mode in bm.CONTROL_MODES:
            with pytest.raises(ValueError, match="finite on the active nodes"):
                bm.dp_recursion_step(values, spec, params, mode)


def test_dp_step_ignores_masked_nodes():
    # whatever a slice holds off the ball, the step reads the slice the
    # solvers would hold: NaN there, filled from the mask for interpolation
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.1)
    for model in ("diffusive", "counting"):
        spec = bm.GridSpec(model=model, n_nodes=(7, 6, 7), n_steps=2, horizon_T=0.1)
        mask = spec.active_mask()
        terminal = np.where(mask, 1.0 - spec.points()[..., 2], np.nan)
        want = bm.dp_recursion_step(terminal, spec, params)
        for off in (7.0, np.inf):
            got = bm.dp_recursion_step(np.where(mask, terminal, off), spec, params)
            assert np.array_equal(_bits(got), _bits(want))


# ---------------------------------------------------------------------------
# grid kernels against whole-array references


def _shift(values, axis, offset):
    # values displaced by -offset along axis; vacated entries become NaN
    out = np.full_like(values, np.nan)
    n = values.shape[axis]
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if offset > 0:
        dst[axis] = slice(0, n - offset)
        src[axis] = slice(offset, n)
    else:
        dst[axis] = slice(-offset, n)
        src[axis] = slice(0, n + offset)
    out[tuple(dst)] = values[tuple(src)]
    return out


def _minmod(a, b):
    return np.where(a * b > 0.0, np.sign(a) * np.minimum(np.abs(a), np.abs(b)), 0.0)


def _reference_gradient(values, spacings, limited=False):
    # whole-array stencils on NaN-padded shifted copies of the slice
    grads = []
    for axis, h in enumerate(spacings):
        vp = _shift(values, axis, +1)
        vm = _shift(values, axis, -1)
        has_p = np.isfinite(vp)
        has_m = np.isfinite(vm)
        fwd = (vp - values) / h
        bwd = (values - vm) / h
        if limited:
            both = _minmod(np.where(has_p, fwd, 0.0), np.where(has_m, bwd, 0.0))
        else:
            both = (vp - vm) / (2.0 * h)
        one_sided = np.where(has_p, fwd, np.where(has_m, bwd, 0.0))
        grads.append(np.where(has_p & has_m, both, one_sided))
    return np.stack(grads, axis=-1)


def _reference_advection(values, drift, spacings):
    total = np.zeros_like(values)
    for axis, h in enumerate(spacings):
        vp = _shift(values, axis, +1)
        vm = _shift(values, axis, -1)
        fwd = np.where(np.isfinite(vp), (vp - values) / h, 0.0)
        bwd = np.where(np.isfinite(vm), (values - vm) / h, 0.0)
        b = drift[..., axis]
        total = total + b * np.where(b > 0.0, fwd, bwd)
    return total


def _reference_fill(values):
    # whole-array sweeps: every NaN node with a finite axis neighbor takes
    # the mean of those neighbors, summed axis by axis, +1 before -1
    filled = np.array(values, dtype=float, copy=True)
    missing = np.isnan(filled)
    while missing.any():
        acc = np.zeros_like(filled)
        cnt = np.zeros(filled.shape)
        for axis in range(filled.ndim):
            for off in (+1, -1):
                s = _shift(filled, axis, off)
                good = np.isfinite(s)
                acc += np.where(good, s, 0.0)
                cnt += good
        newly = missing & (cnt > 0)
        if not newly.any():
            raise ValueError("cannot extend an all-NaN slice")
        filled[newly] = acc[newly] / cnt[newly]
        missing = np.isnan(filled)
    return filled


def _reference_interp(filled, axes, pts):
    # corners read with a tuple of per-axis index arrays
    pts = np.asarray(pts, dtype=float)
    d = len(axes)
    lead = pts.shape[:-1]
    q = pts.reshape(-1, d)
    base = []
    frac = []
    for ax in range(d):
        nodes = axes[ax]
        h = nodes[1] - nodes[0]
        f = (np.clip(q[:, ax], nodes[0], nodes[-1]) - nodes[0]) / h
        i0 = np.clip(np.floor(f).astype(int), 0, nodes.size - 2)
        base.append(i0)
        frac.append(np.clip(f - i0, 0.0, 1.0))
    out = np.zeros(q.shape[0])
    for corner in range(1 << d):
        weight = np.ones(q.shape[0])
        idx = []
        for ax in range(d):
            bit = (corner >> ax) & 1
            idx.append(base[ax] + bit)
            weight = weight * (frac[ax] if bit else 1.0 - frac[ax])
        out += weight * filled[tuple(idx)]
    return out.reshape(lead)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("shape", [(21, 21, 21), (7, 6, 7)])
def test_interp_box_matches_tuple_index_reference(shape):
    rng = np.random.default_rng(11)
    spec = bm.GridSpec(model="diffusive", n_nodes=shape, n_steps=1, horizon_T=1.0)
    axes = spec.axes()
    filled = _reference_fill(np.where(spec.active_mask(), rng.normal(size=shape), np.nan))
    nodes = spec.points().reshape(-1, 3)
    inside = rng.uniform(-1.0, 1.0, size=(400, 3))
    upper_edge = rng.uniform(-1.0, 1.0, size=(4, 60, 3))
    for ax in range(3):
        upper_edge[ax, :, ax] = 1.0
    upper_edge[3] = 1.0
    outside = rng.uniform(-3.0, 3.0, size=(400, 3))
    for pts in (nodes, inside, upper_edge, outside, inside.reshape(2, 200, 3), nodes[7]):
        want = _reference_interp(filled, axes, pts)
        got = bm._interp_box(filled, bm._interp_plan(spec._geometry, pts))
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


def test_interp_plan_applied_to_a_stack_matches_one_call_per_slice():
    rng = np.random.default_rng(13)
    spec = bm.GridSpec(model="diffusive", n_nodes=(9, 8, 9), n_steps=1, horizon_T=1.0)
    geo = spec._geometry
    mask = spec.active_mask()
    stack = np.stack([_reference_fill(np.where(mask, rng.normal(size=spec.shape), np.nan))
                      for _ in range(2)])
    nodes = spec.points().reshape(-1, 3)
    inside = rng.uniform(-1.0, 1.0, size=(300, 3))
    upper_edge = rng.uniform(-1.0, 1.0, size=(4, 50, 3))
    for ax in range(3):
        upper_edge[ax, :, ax] = 1.0
    upper_edge[3] = 1.0
    outside = rng.uniform(-3.0, 3.0, size=(300, 3))
    for pts in (nodes, inside, upper_edge, outside, nodes[5]):
        got = bm._interp_apply(stack, bm._interp_plan(geo, pts))
        assert got.shape == pts.shape[:-1] + (2,)
        for c in range(2):
            want = bm._interp_box(stack[c], bm._interp_plan(geo, pts))
            assert np.array_equal(_bits(got[..., c]), _bits(want))


def test_qubit_grid_policy_matches_clipped_per_component_reads():
    # the policy no longer clips the state itself: the plan's clamp to the
    # cube [-1, 1]^3 gives the same bits as clipping first
    params = ModelParams(kappa_s_sq=0.8, horizon_T=0.3)
    spec = bm.GridSpec(model="counting", n_nodes=7, n_steps=30, horizon_T=0.3,
                       control_box=1.0)
    vg = bm.solve_backward(spec, params)
    policy = bm.extract_policy(vg)
    geo = spec._geometry
    mask = spec.active_mask()
    plan = bm._fill_plan(~mask, mask)
    states = np.random.default_rng(14).uniform(-1.5, 1.5, size=(200, 3))
    states[:4] = [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [1.0, 1.0, 1.0], [-2.0, 0.5, 3.0]]
    for t, k in ((0.0, 0), (0.1, 10), (0.3, 30)):
        q = np.clip(states, -1.0, 1.0)
        want = np.stack([bm._interp_box(bm._fill_inactive(vg.controls[k, c], plan),
                                        bm._interp_plan(geo, q))
                         for c in range(2)], axis=-1)
        assert np.array_equal(_bits(policy(t, states)), _bits(want))
        assert np.array_equal(_bits(policy(t, states[0])), _bits(want[0]))


def _fill_by_pattern(values):
    # the plan of whatever the slice holds: NaN nodes are filled from the
    # finite ones; an infinite node is neither filled nor read
    return bm._fill_inactive(values, bm._fill_plan(np.isnan(values), np.isfinite(values)))


def test_fill_inactive_matches_whole_array_reference():
    rng = np.random.default_rng(12)
    ball = bm.GridSpec(model="diffusive", n_nodes=21, n_steps=1, horizon_T=1.0).active_mask()
    small = bm.GridSpec(model="diffusive", n_nodes=(7, 6, 7), n_steps=1,
                        horizon_T=1.0).active_mask()
    # a NaN pattern that is not the ball mask
    holes = ball & (rng.random(ball.shape) < 0.8)
    for i, keep in enumerate([ball, holes, small, ball, ball]):
        values = np.where(keep, rng.normal(size=keep.shape), np.nan)
        if i in (3, 4):
            # an infinite node is neither filled nor counted as a neighbor;
            # a finite one in its place, under the same NaN pattern, counts
            values[0, 0, 0] = np.inf if i == 3 else 3.0
        got = _fill_by_pattern(values)
        assert np.array_equal(_bits(got), _bits(_reference_fill(values)))
        assert np.isnan(values).any() and not np.isnan(got).any()
    with pytest.raises(ValueError, match="all-NaN"):
        _fill_by_pattern(np.full((5, 5, 5), np.nan))


@pytest.mark.parametrize("model, solve", [
    ("counting", bm.solve_backward),
    ("diffusive", lambda spec, params: bm.solve_dp(spec, params, bm.CLOSED_FORM)),
])
def test_mask_fill_plan_matches_whole_array_reference_on_every_slice(model, solve):
    # solver slices are NaN exactly off the mask, so the grid's one plan
    # fills each of them as the whole-array sweep does
    params = ModelParams(kappa_s_sq=0.8, horizon_T=0.05)
    spec = bm.GridSpec(model=model, n_nodes=(7, 6, 7), n_steps=5, horizon_T=0.05,
                       control_box=1.0)
    vg = solve(spec, params)
    mask = spec.active_mask()
    plan = bm._fill_plan(~mask, mask)
    slices = np.concatenate([vg.values, vg.controls.reshape((-1,) + spec.shape)])
    for s in slices:
        assert np.array_equal(np.isnan(s), ~mask)
        assert np.array_equal(_bits(bm._fill_inactive(s, plan)), _bits(_reference_fill(s)))


@pytest.mark.parametrize("shape", [(21, 21, 21), (7, 6, 7)])
def test_stencils_on_the_gather_match_whole_array_reference(shape):
    # a slice that is NaN exactly off the mask, drift of both signs and zero
    rng = np.random.default_rng(15)
    geo = bm.GridSpec(model="diffusive", n_nodes=shape, n_steps=1, horizon_T=1.0)._geometry
    mask, spacings = geo.mask, geo.spacings
    values = np.where(mask, rng.normal(size=shape), np.nan)
    drift = rng.normal(size=shape + (3,))
    drift[rng.random(shape) < 0.1] = 0.0
    # the gather reads the symmetry cell's nodes, the stencils the whole slice
    g = geo.gather(values)
    assert g.shape == (7, geo.cell.size)

    def cell(a):
        return a.reshape((mask.size,) + a.shape[3:])[geo.cell]

    for limited in (False, True):
        want = cell(_reference_gradient(values, spacings, limited))
        assert np.array_equal(_bits(bm._gradient(g, spacings, limited)), _bits(want))
    want = cell(_reference_advection(values, drift, spacings))
    assert np.array_equal(_bits(bm._advection_upwind(g, cell(drift).T, spacings)), _bits(want))


def test_angle_stencils_on_the_gather_match_the_rolled_slice():
    rng = np.random.default_rng(16)
    params = ModelParams(alpha=0.37, horizon_T=1.0)
    spec = bm.GridSpec(model="angle", n_nodes=37, n_steps=2000, horizon_T=1.0, control_box=0.5)
    geo = spec._geometry
    h = geo.spacings[0]
    v = rng.normal(size=37)
    up, down = np.roll(v, -1), np.roll(v, 1)
    g = geo.gather(v)
    central = (up - down) / (2.0 * h)
    limited = _minmod((up - v) / h, (v - down) / h)
    second = (up - 2.0 * v + down) / (h * h)
    assert np.array_equal(_bits(bm._gradient(g, geo.spacings)[:, 0]), _bits(central))
    assert np.array_equal(_bits(bm._gradient(g, geo.spacings, limited=True)[:, 0]), _bits(limited))
    diffusion = 2.0 * params.alpha**2
    # the feedback and one FD step, as the rolled forms gave them
    slope, b = bm._feedback(g, spec, geo)
    assert np.array_equal(_bits(b), _bits(np.clip(-central, -0.5, 0.5)))
    new, u = bm._fd_step(spec, params, geo)(v)
    assert np.array_equal(_bits(u[:, 0]), _bits(b))
    rhs = b * b + 2.0 * b * central + diffusion * second
    assert np.array_equal(_bits(new), _bits(v + spec.delta * rhs))


@pytest.mark.parametrize("n, shell, active", [(17, 606, 2109), (21, 978, 4169),
                                              (31, 2262, 14147)])
def test_neighbour_table_counts_the_nodes_with_a_dropped_stencil_term(n, shell, active):
    # the FD stencils read the node's axis neighbours; a node with one of them
    # masked or off the grid drops an upwind term.  The table holds the
    # symmetry cell's nodes, and each active node counts as its image
    geo = bm.GridSpec(model="diffusive", n_nodes=n, n_steps=1, horizon_T=1.0)._geometry
    table = geo.neighbours
    assert np.count_nonzero(geo.mask) == geo.rep.size == active
    assert table.shape == (7, geo.cell.size)
    assert np.array_equal(table[0], geo.cell)
    # row 1 + 2 axis (+1 for the -1 step) is the axis neighbour, or the
    # sentinel one past the last node off the grid
    coords = np.stack(np.unravel_index(geo.cell, geo.mask.shape))
    for axis in range(3):
        for row, step in ((1 + 2 * axis, 1), (2 + 2 * axis, -1)):
            moved = coords.copy()
            moved[axis] += step
            inside = (moved[axis] >= 0) & (moved[axis] < n)
            want = np.ravel_multi_index(np.clip(moved, 0, n - 1), geo.mask.shape)
            assert np.array_equal(table[row], np.where(inside, want, geo.mask.size))
    readable = np.append(geo.mask.ravel(), False)[table]
    dropped = ~readable.all(axis=0)
    assert np.count_nonzero(dropped[geo.rep]) == shell


def test_angle_neighbour_table_wraps():
    n = 37
    table = bm.GridSpec(model="angle", n_nodes=n, n_steps=1, horizon_T=1.0)._geometry.neighbours
    assert table.shape == (3, n)
    assert table[-1, 0] == n - 1 and table[1, n - 1] == 0
    assert np.array_equal(table[0], np.arange(n))
    assert (table < n).all()


def test_exhaustive_angle_dp_step_scans_candidates_in_blocks(monkeypatch):
    # the angle keeps the blocked control scan: each block of DP_BLOCK
    # candidates is one cost read, i.e. one read of both Wiener kicks
    calls = []
    read = bm._interp_box

    def counted(filled, plan):
        calls.append(np.shape(plan[0][0]))
        return read(filled, plan)

    monkeypatch.setattr(bm, "_interp_box", counted)
    spec = bm.GridSpec(model="angle", n_nodes=(33,), n_steps=10, horizon_T=1.0,
                       control_box=2.0, control_resolution=9)
    theta = spec.axes()[0]
    bm.dp_recursion_step(theta**2, spec, ANGLE, bm.EXHAUSTIVE)
    assert len(calls) == -(-9 // bm.DP_BLOCK) == 3
    assert calls == [(2, bm.DP_BLOCK, 33)] * 3


def test_exhaustive_angle_solve_dp_builds_its_plans_once(monkeypatch):
    # the post-step angle reads the control alone, so the blocks' plans are
    # built once per solve: the count does not grow with the steps
    calls = []
    axis_plan = bm._axis_plan
    monkeypatch.setattr(bm, "_axis_plan", lambda *a: calls.append(1) or axis_plan(*a))
    counts = []
    for n_steps in (2, 8):
        spec = bm.GridSpec(model="angle", n_nodes=(33,), n_steps=n_steps, horizon_T=1.0,
                           control_box=2.0, control_resolution=9)
        calls.clear()
        bm.solve_dp(spec, ANGLE, bm.EXHAUSTIVE)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("model", ["diffusive", "counting"])
def test_exhaustive_qubit_solve_dp_builds_its_plans_once(monkeypatch, model):
    # a candidate's post-step queries do not depend on the slice, so the
    # scan builds every plan, z's included, once per solve; closed-form mode
    # reads at each slice's own feedback, so its plans stay per step
    calls = []
    axis_plan = bm._axis_plan
    monkeypatch.setattr(bm, "_axis_plan", lambda *a: calls.append(1) or axis_plan(*a))
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.2)
    counts = {bm.EXHAUSTIVE: [], bm.CLOSED_FORM: []}
    for mode in counts:
        for n_steps in (2, 8):
            spec = bm.GridSpec(model=model, n_nodes=9, n_steps=n_steps, horizon_T=0.2,
                               control_box=2.0, control_resolution=9)
            calls.clear()
            bm.solve_dp(spec, params, mode)
            counts[mode].append(len(calls))
    assert counts[bm.EXHAUSTIVE][0] == counts[bm.EXHAUSTIVE][1] > 0
    # six more steps, one plan per axis each
    assert counts[bm.CLOSED_FORM][1] - counts[bm.CLOSED_FORM][0] == 6 * 3


@pytest.mark.parametrize("model", ["diffusive", "counting"])
def test_exhaustive_solve_dp_z_offsets_hold_past_int8(monkeypatch, model):
    # 131 z nodes put the scan's lower z nodes up to index 129, past int8,
    # and at this delta the reads there win: the compactly held z plans must
    # read bit for bit what full plans read
    tops = []
    axis_plan = bm._axis_plan

    def recorded(geo, ax, q):
        plan = axis_plan(geo, ax, q)
        if ax == 2:
            tops.append(int(plan[0].max()))
        return plan

    monkeypatch.setattr(bm, "_axis_plan", recorded)
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.02)
    spec = bm.GridSpec(model=model, n_nodes=(3, 3, 131), n_steps=2, horizon_T=0.02,
                       control_box=2.0, control_resolution=3)
    geo = spec._geometry
    vg = bm.solve_dp(spec, params, bm.EXHAUSTIVE)
    assert max(tops) > np.iinfo(np.int8).max
    v = vg.values[2]
    for k in (1, 0):
        value, u = _reference_exhaustive_step(v, spec, params)
        v = bm._place(np.full(spec.shape, np.nan), geo, value)
        assert np.array_equal(_bits(vg.values[k]), _bits(v))
        want_u = bm._place(np.full((2,) + spec.shape, np.nan), geo, u)
        assert np.array_equal(_bits(vg.controls[k]), _bits(want_u))


@pytest.mark.parametrize("model", ["diffusive", "counting"])
def test_solve_dp_hands_the_reader_only_nonnegative_plan_offsets(monkeypatch, model):
    # `_interp_apply` reads flat[off:].take(lin), and take wraps a negative
    # index onto the wrong node without an error; 131 z nodes put offsets
    # past int8, so a narrowing that wraps them fails here at any horizon
    lows, highs = [], []
    interp_box = bm._interp_box

    def recorded(filled, plan):
        lows.extend(int(np.min(base)) for base, _, _ in plan)
        highs.append(int(np.max(plan[-1][0])))
        return interp_box(filled, plan)

    monkeypatch.setattr(bm, "_interp_box", recorded)
    for horizon in (0.02, 1.0):
        params = ModelParams(kappa_s_sq=0.5, horizon_T=horizon)
        spec = bm.GridSpec(model=model, n_nodes=(3, 3, 131), n_steps=2, horizon_T=horizon,
                           control_box=2.0, control_resolution=3)
        for mode in (bm.CLOSED_FORM, bm.EXHAUSTIVE):
            bm.solve_dp(spec, params, mode)
    assert min(lows) >= 0
    assert max(highs) > np.iinfo(np.int8).max


def test_exhaustive_dp_step_memory_stays_near_the_slice():
    # candidates are scanned a few at a time: neither a per-solve table of
    # corner indices and weights (~290 slices here) nor all 81 candidates
    # at once (~1900 slices) fits under the bound
    params = ModelParams(kappa_s_sq=0.5, horizon_T=1.0)
    spec = bm.GridSpec(model="diffusive", n_nodes=21, n_steps=20, horizon_T=1.0,
                       control_box=2.0, control_resolution=9)
    terminal = np.where(spec.active_mask(), 1.0 - spec.points()[..., 2], np.nan)
    bm.dp_recursion_step(terminal, spec, params, bm.EXHAUSTIVE)
    tracemalloc.start()
    try:
        bm.dp_recursion_step(terminal, spec, params, bm.EXHAUSTIVE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * terminal.nbytes


def _reference_objective(v, spec, params, geo):
    # the DP step's cost at controls (..., 2) on geometry geo's nodes, read
    # from slice v: all three axes of every query afresh
    axes = geo.axes
    px, py, pz = geo.flat.T.copy()
    delta = spec.delta
    filled = bm._fill_inactive(v, geo.fill)
    if spec.model == "counting":
        lam = filters._jump_intensity_z(pz, params.kappa_s_sq)
        jump_prob = lam * delta
        j_ground = float(_reference_interp(filled, axes, np.asarray(GROUND_STATE, float)))

        def mean_next(u_plus, u_minus):
            drift = filters._counting_drift_xyz(px, py, pz, u_plus, u_minus, lam)
            q = np.empty((3,) + drift[2].shape)
            for c, (p, b) in enumerate(zip((px, py, pz), drift)):
                np.add(p, b * delta, out=q[c])
            out = (1.0 - jump_prob) * _reference_interp(filled, axes, np.moveaxis(q, 0, -1))
            out += jump_prob * j_ground
            return out

    else:
        sqrt_delta = np.sqrt(delta)
        kick = [s * sqrt_delta for s in filters._diffusive_diffusion_xyz(px, py, pz, params.kappa_s)]

        def mean_next(u_plus, u_minus):
            drift = filters._diffusive_drift_xyz(px, py, pz, u_plus, u_minus)
            q = np.empty((3, 2) + drift[2].shape)
            for c, (p, b, k) in enumerate(zip((px, py, pz), drift, kick)):
                drifted = p + b * delta
                np.add(drifted, k, out=q[c, 0])
                np.subtract(drifted, k, out=q[c, 1])
            r = _reference_interp(filled, axes, np.moveaxis(q, 0, -1))
            return 0.5 * (r[0] + r[1])

    def objective(u):
        return np.sum(u**2, axis=-1) * delta + mean_next(u[..., 0], u[..., 1])

    return objective


def _reference_exhaustive_step(v, spec, params):
    # the blocked control scan as it stood before the separable one: each
    # block of DP_BLOCK candidates in meshgrid order is one objective call
    geo = spec._geometry
    objective = _reference_objective(v, spec, params, geo)
    grid = spec.control_values()
    cands = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
    m = len(geo.flat)
    best = np.full(m, np.inf)
    best_k = np.zeros(m, dtype=int)
    better = np.empty(m, dtype=bool)
    for start in range(0, len(cands), bm.DP_BLOCK):
        vals = objective(cands[start : start + bm.DP_BLOCK, None])
        for k, val in enumerate(vals, start):
            np.less(val, best, out=better)
            np.copyto(best, val, where=better)
            np.copyto(best_k, k, where=better)
    return best, cands[best_k]


@pytest.mark.parametrize("model", ["diffusive", "counting"])
@pytest.mark.parametrize("resolution", [1, 4, 5])
def test_separable_control_scan_matches_the_blocked_reference(model, resolution):
    # resolution 5 leaves a partial last block of each u_plus row (and made
    # the reference's blocks straddle rows); on the zero slice at resolution
    # 4 the four (+-1, +-1) tie exactly, and the first of them must win; a
    # box of 3 takes post-step queries past the cube, where the plan clamps
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.2)
    spec = bm.GridSpec(model=model, n_nodes=(9, 8, 9), n_steps=4, horizon_T=0.2,
                       control_box=3.0, control_resolution=resolution)
    geo = spec._geometry
    rng = np.random.default_rng(17)
    slices = [np.where(geo.mask, 1.0 - spec.points()[..., 2], np.nan),
              np.where(geo.mask, rng.normal(size=spec.shape), np.nan)]
    if resolution == 4:
        slices.append(np.where(geo.mask, 0.0, np.nan))
    step = bm._dp_step(spec, params, geo, bm.EXHAUSTIVE)
    for v in slices:
        want_value, want_u = _reference_exhaustive_step(v, spec, params)
        got_value, got_u = step(v)
        assert np.array_equal(_bits(got_value), _bits(want_value))
        assert np.array_equal(_bits(got_u), _bits(want_u))
    if resolution == 4:
        assert (got_u == -1.0).all()


def test_exhaustive_solve_dp_peak_stays_at_the_blocked_scan():
    # one 21^3 x 20 exhaustive solve on a fresh spec (geometry included)
    # peaked at 11,833,947 traced bytes (11.29 MiB) with the blocked scan
    # that built all three axes of every candidate's plan; the separable
    # scan must not need more, so no rewrite scans all 81 candidates at once
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.2)
    spec = bm.GridSpec(model="diffusive", n_nodes=21, n_steps=20, horizon_T=0.2,
                       control_box=2.0, control_resolution=9)
    _, peak = _traced_peak(lambda: bm.solve_dp(spec, params, bm.EXHAUSTIVE))
    assert peak <= 1.05 * 11_833_947


# ---------------------------------------------------------------------------
# the symmetry cell: each qubit step is computed on px >= 0, py >= 0 and mirrored


def test_axes_and_control_grids_are_exactly_antisymmetric():
    # np.linspace is not, at 7, 8, 11, 13, ... nodes; where it is (3, 5, 9,
    # 17, 33), the axes keep its bits
    for n in range(3, 42):
        spec = bm.GridSpec(model="diffusive", n_nodes=n, n_steps=1, horizon_T=1.0,
                           control_box=2.0, control_resolution=n)
        for a in (*spec.axes(), spec.control_values(), spec.control_values() / 2.0):
            assert np.array_equal(a, -a[::-1])
        if n in (3, 5, 9, 17, 33):
            assert np.array_equal(_bits(spec.axes()[0]), _bits(np.linspace(-1.0, 1.0, n)))
        if n in (3, 9):
            assert np.array_equal(_bits(spec.control_values()), _bits(np.linspace(-2.0, 2.0, n)))
    one = bm.GridSpec(model="diffusive", n_nodes=3, n_steps=1, horizon_T=1.0,
                      control_box=2.0, control_resolution=1)
    assert np.array_equal(one.control_values(), [0.0])


def _full_grid_geometry(spec):
    # the geometry as it stood before the symmetry cell: every active node
    # is computed, and each is its own image
    geo = spec._geometry
    cell = np.flatnonzero(geo.mask)
    return dataclasses.replace(geo, cell=cell, flat=spec.points()[geo.mask],
                               rep=np.arange(cell.size), signs=np.ones((cell.size, 2)))


def _full_grid_solve(spec, params, solver):
    # the solvers themselves on the full-grid geometry
    full = dataclasses.replace(spec)
    full.__dict__["_geometry"] = _full_grid_geometry(spec)
    vg = bm.solve_backward(full, params) if solver == "fd" else bm.solve_dp(full, params, solver)
    return vg.values, vg.controls


def _cell_solve(model, solver, shape):
    # the FD's stability bound refuses 10 steps at 9^3; the DP keeps the 10
    # steps at which NEAR_TIES was counted
    spec = bm.GridSpec(model=model, n_nodes=shape, n_steps=20 if solver == "fd" else 10,
                       horizon_T=0.1, control_box=1.0, control_resolution=5)
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.1)
    if solver == "fd":
        return spec, params, bm.solve_backward(spec, params)
    return spec, params, bm.solve_dp(spec, params, solver)


SOLVERS = ["fd", bm.CLOSED_FORM, bm.EXHAUSTIVE]
ODD_AND_EVEN = [(9, 9, 9), (7, 6, 7)]


@pytest.mark.parametrize("shape", ODD_AND_EVEN)
@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("model", ["diffusive", "counting"])
def test_qubit_solves_are_mirror_symmetric(model, solver, shape):
    # values are bit-equal under px -> -px and py -> -py; off the mirror
    # plane, u_plus flips sign under the x mirror and u_minus under the y one
    spec, _, vg = _cell_solve(model, solver, shape)
    mask = spec.active_mask()
    for ax in (1, 2):
        assert np.array_equal(_bits(vg.values), _bits(np.flip(vg.values, ax)))
    for comp, (ax, other) in enumerate(((1, 2), (2, 1))):
        u = vg.controls[:, comp]
        n = u.shape[ax]
        off = np.expand_dims(np.arange(n) != (n - 1) / 2, tuple(d for d in range(3) if d != ax - 1))
        assert np.array_equal(_bits(u), _bits(np.flip(u, other)))
        assert np.array_equal(_bits(u[:, mask & off]), _bits(-np.flip(u, ax)[:, mask & off]))


# control entries where the cell solve picks another candidate than the
# full-grid loop: exhaustive near-ties, whose objectives differ by an ulp
NEAR_TIES = {("diffusive", (9, 9, 9)): 31}


@pytest.mark.parametrize("shape", ODD_AND_EVEN)
@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("model", ["diffusive", "counting"])
def test_cell_solves_match_the_full_grid_loop(model, solver, shape):
    spec, params, vg = _cell_solve(model, solver, shape)
    values, controls = _full_grid_solve(spec, params, solver)
    mask = spec.active_mask()
    assert np.array_equal(np.isnan(vg.values), np.isnan(values))
    assert np.nanmax(np.abs(vg.values - values)) <= 1e-13
    if solver != bm.EXHAUSTIVE:
        assert np.nanmax(np.abs(vg.controls - controls)) <= 1e-13
        return
    full = _full_grid_geometry(spec)
    ties = 0
    for k in range(spec.n_steps):
        got, want = vg.controls[k][:, mask].T, controls[k][:, mask].T
        differ = np.any(got != want, axis=1)
        if differ.any():
            objective = _reference_objective(values[k + 1], spec, params, full)
            gap = np.abs(objective(got) - objective(want))[differ]
            assert gap.max() <= 1e-15
        ties += np.count_nonzero(got != want)
    assert ties == NEAR_TIES.get((model, shape), 0)


@pytest.mark.parametrize("model", ["diffusive", "counting"])
def test_dp_recursion_step_is_the_first_step_of_solve_dp(model):
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.1)
    spec = bm.GridSpec(model=model, n_nodes=(9, 8, 9), n_steps=10, horizon_T=0.1,
                       control_box=1.0, control_resolution=5)
    for mode in bm.CONTROL_MODES:
        vg = bm.solve_dp(spec, params, mode)
        got = bm.dp_recursion_step(vg.values[-1], spec, params, mode)
        assert np.array_equal(_bits(got), _bits(vg.values[-2]))
    # a slice off the mirror symmetry would be mirrored wrongly: refused
    lopsided = vg.values[-1] + spec.points()[..., 0]
    with pytest.raises(ValueError, match="symmetric under the mirrors"):
        bm.dp_recursion_step(lopsided, spec, params)


def test_dp_refuses_a_jump_probability_of_one_per_step():
    # delta * max jump intensity = 1 * (1 / 2) * (1 + 1) = 1: the Bernoulli
    # pair would put all weight on the jump, or negative weight on the drift
    params = ModelParams(kappa_s_sq=1.0, horizon_T=1.0)
    spec = bm.GridSpec(model="counting", n_nodes=5, n_steps=1, horizon_T=1.0,
                       control_box=1.0, control_resolution=3)
    terminal = np.where(spec.active_mask(), 1.0 - spec.points()[..., 2], np.nan)
    for mode in bm.CONTROL_MODES:
        with pytest.raises(ValueError, match="max jump intensity"):
            bm.solve_dp(spec, params, mode)
        with pytest.raises(ValueError, match="max jump intensity"):
            bm.dp_recursion_step(terminal, spec, params, mode)


@pytest.mark.parametrize("model", ["diffusive", "counting"])
def test_solve_dp_reads_the_dynamics_once(monkeypatch, model):
    # the DP step is built once per solve, as the FD step is: no step
    # re-reads the model's dynamics
    calls = []
    dynamics = bm._dynamics
    monkeypatch.setattr(bm, "_dynamics", lambda *a: calls.append(1) or dynamics(*a))
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.1)
    spec = bm.GridSpec(model=model, n_nodes=7, n_steps=10, horizon_T=0.1,
                       control_box=1.0, control_resolution=3)
    for mode in bm.CONTROL_MODES:
        calls.clear()
        bm.solve_dp(spec, params, mode)
        assert len(calls) == 1


@pytest.mark.parametrize("model", ["diffusive", "counting"])
def test_mirrored_exhaustive_controls_are_control_grid_points(model):
    # at 7 points np.linspace(-1, 1, 7) is not antisymmetric, so a mirrored
    # control would miss its candidate by an ulp
    assert not np.array_equal(np.linspace(-1.0, 1.0, 7), -np.linspace(-1.0, 1.0, 7)[::-1])
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.1)
    spec = bm.GridSpec(model=model, n_nodes=9, n_steps=5, horizon_T=0.1,
                       control_box=1.0, control_resolution=7)
    # the terminal slice holds the completed-squares feedback, not a scan's
    controls = bm.solve_dp(spec, params, bm.EXHAUSTIVE).controls[:-1, :, spec.active_mask()]
    assert np.isin(controls, spec.control_values()).all()
    assert (controls < 0.0).any() and (controls > 0.0).any()


def test_solve_dp_angle_small_alpha_reaches_the_noise_free_limit():
    # diffusion too weak for the explicit stencil, fine for the recursion
    params = ModelParams(alpha=0.05, horizon_T=1.0)
    spec = bm.GridSpec(model="angle", n_nodes=(801,), n_steps=100, horizon_T=1.0)
    vg = bm.solve_dp(spec, params)
    theta = spec.axes()[0]
    sel = np.abs(theta) <= 2.0
    exact = value(0.0, theta[sel], 1.0, 0.05)
    assert np.abs(vg.values[0][sel] - exact).max() < 5e-3
    # and the alpha -> 0 limit value theta^2 / (4T + 1) is already close
    assert np.abs(vg.values[0][sel] - theta[sel] ** 2 / 5.0).max() < 1e-2


def test_solve_dp_angle_error_grows_like_h2_over_delta():
    # closed-form angle DP on 201 nodes against the Riccati value over
    # |theta| <= 2: 0.0109 at 100 steps (h^2/delta = 0.098), 0.1009 at 1600
    # (h^2/delta = 1.56), where `solve --method dp` warns
    spec = bm.GridSpec(model="angle", n_nodes=(201,), n_steps=100, horizon_T=1.0)
    theta = spec.axes()[0]
    sel = np.abs(theta) <= 2.0
    exact = value(0.0, theta[sel], 1.0, 0.5)
    errors = []
    for n_steps in (100, 1600):
        spec = bm.GridSpec(model="angle", n_nodes=(201,), n_steps=n_steps, horizon_T=1.0)
        errors.append(np.abs(bm.solve_dp(spec, ANGLE).values[0][sel] - exact).max())
    assert errors[0] <= 0.02
    assert errors[1] > 0.05


def test_solve_dp_modes_agree_within_documented_tolerance():
    # documented bound: T * s^2 + 2 h^2 with s the control spacing
    params = ModelParams(kappa_s_sq=0.5, horizon_T=0.1)
    for model, n in (("diffusive", 9), ("counting", 11)):
        spec = bm.GridSpec(model=model, n_nodes=(n,) * 3, n_steps=10,
                           horizon_T=0.1, control_box=2.0, control_resolution=9)
        h = spec.spacings()[0]
        s = 4.0 / 8
        a = bm.solve_dp(spec, params, mode=bm.CLOSED_FORM)
        b = bm.solve_dp(spec, params, mode=bm.EXHAUSTIVE)
        gap = np.nanmax(np.abs(a.values - b.values))
        assert gap <= 0.1 * s * s + 2.0 * h * h
    spec = bm.GridSpec(model="angle", n_nodes=(201,), n_steps=100, horizon_T=1.0,
                       control_box=20.0, control_resolution=81)
    h = spec.spacings()[0]
    s = 40.0 / 80
    a = bm.solve_dp(spec, ANGLE, mode=bm.CLOSED_FORM)
    b = bm.solve_dp(spec, ANGLE, mode=bm.EXHAUSTIVE)
    gap = np.abs(a.values - b.values).max()
    assert gap <= 1.0 * s * s + 2.0 * h * h


# ---------------------------------------------------------------------------
# finite-difference sweeps


def test_solve_backward_n0_returns_terminal_only():
    for model in ("diffusive", "counting"):
        spec = bm.GridSpec(model=model, n_nodes=(7, 7, 7), n_steps=0, horizon_T=1.0)
        vg = bm.solve_backward(spec, QUBIT)
        mask = spec.active_mask()
        np.testing.assert_allclose(
            vg.values[0][mask], 1.0 - spec.points()[mask][:, 2]
        )
        assert np.isnan(vg.values[0][~mask]).all()
    spec = bm.GridSpec(model="angle", n_nodes=(9,), n_steps=0, horizon_T=1.0)
    vg = bm.solve_backward(spec, ANGLE)
    np.testing.assert_allclose(vg.values[0], spec.axes()[0] ** 2)
    vg = bm.solve_dp(spec, ANGLE)
    np.testing.assert_allclose(vg.values[0], spec.axes()[0] ** 2)


@pytest.mark.parametrize("model, params", [("counting", QUBIT), ("angle", ANGLE)])
def test_solve_backward_reads_each_slice_feedback_once(monkeypatch, model, params):
    calls = []
    feedback = bm._feedback
    monkeypatch.setattr(bm, "_feedback", lambda *a, **k: calls.append(1) or feedback(*a, **k))
    spec = bm.GridSpec(model=model, n_nodes=7, n_steps=100, horizon_T=1.0, control_box=1.0)
    bm.solve_backward(spec, params)
    assert len(calls) == spec.n_steps + 1


def test_solve_fd_angle_matches_closed_form():
    spec = bm.GridSpec(model="angle", n_nodes=(201,), n_steps=2500, horizon_T=1.0)
    vg = bm.solve_backward(spec, ANGLE)
    theta = spec.axes()[0]
    sel = np.abs(theta) <= 2.0
    err = np.abs(vg.values[0][sel] - value(0.0, theta[sel], 1.0, 0.5)).max()
    assert err < 5e-3
    policy = bm.extract_policy(vg)
    got = policy(0.0, theta[sel])
    assert np.abs(got - optimal_B(0.0, theta[sel], 1.0)).max() < 2e-2
    # terminal slice is exact
    np.testing.assert_array_equal(vg.values[-1], theta**2)
    # even in theta and nondecreasing in |theta| away from the seam
    for k in (0, 1250, 2500):
        v = vg.values[k]
        np.testing.assert_allclose(v[1:], v[:0:-1], atol=1e-9)
        assert (np.diff(v[101:]) > -1e-10).all()


def test_solve_fd_qubit_terminal_bounds_and_box():
    params = ModelParams(kappa_s_sq=1.0, kappa_f_sq=0.0, horizon_T=0.1)
    for model in ("diffusive", "counting"):
        spec = bm.GridSpec(model=model, n_nodes=(11, 11, 11), n_steps=100,
                           horizon_T=0.1, control_box=2.0)
        vg = bm.solve_backward(spec, params)
        mask = spec.active_mask()
        pts = spec.points()
        np.testing.assert_allclose(vg.values[-1][mask], 1.0 - pts[mask][:, 2])
        active = vg.values[:, mask]
        assert np.isfinite(active).all()
        assert (active >= -1e-12).all()
        assert (active <= 2.0 + 8.0 * 0.1 + 1e-9).all()
        ctrl = vg.controls[:, :, mask]
        assert (np.abs(ctrl) <= 2.0 + 1e-12).all()
        assert np.isnan(vg.values[:, ~mask]).all()


def test_solve_fd_rejects_unstable_steps():
    with pytest.raises(ValueError, match="stability bound"):
        bm.solve_backward(
            bm.GridSpec(model="angle", n_nodes=(201,), n_steps=100, horizon_T=1.0),
            ANGLE,
        )
    params = ModelParams(kappa_s_sq=1.0, kappa_f_sq=0.0, horizon_T=0.2)
    for model in ("diffusive", "counting"):
        with pytest.raises(ValueError, match="stability bound"):
            bm.solve_backward(
                bm.GridSpec(model=model, n_nodes=(21,) * 3, n_steps=10,
                            horizon_T=0.2, control_box=2.0),
                params,
            )


def test_solve_fd_reports_nonfinite_blowup():
    # advection-dominated regime where the central stencil has no chance
    params = ModelParams(alpha=0.05, horizon_T=1.0)
    spec = bm.GridSpec(model="angle", n_nodes=(201,), n_steps=100, horizon_T=1.0)
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite value at slice"):
        bm.solve_backward(spec, params)


def _count_calls(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("model", ["diffusive", "counting"])
def test_solve_fd_qubit_validates_states_once_per_solve(monkeypatch, model):
    # the grid nodes are checked at the boundary, never once per step
    calls = _count_calls(monkeypatch, filters, "_as_bloch")
    params = ModelParams(kappa_s_sq=1.0, kappa_f_sq=0.0, horizon_T=0.01)
    counts = []
    for n_steps in (10, 20):
        spec = bm.GridSpec(model=model, n_nodes=(5, 5, 5), n_steps=n_steps,
                           horizon_T=0.01, control_box=1.0)
        calls.clear()
        bm.solve_backward(spec, params)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_solve_fd_counting_builds_one_ground_state_plan(monkeypatch):
    calls = _count_calls(monkeypatch, bm, "_interp_plan")
    params = ModelParams(kappa_s_sq=1.0, kappa_f_sq=0.0, horizon_T=0.01)
    spec = bm.GridSpec(model="counting", n_nodes=(5, 5, 5), n_steps=10,
                       horizon_T=0.01, control_box=1.0)
    bm.solve_backward(spec, params)
    assert len(calls) == 1


def test_solver_rejects_mismatched_horizon():
    spec = bm.GridSpec(model="angle", n_nodes=(9,), n_steps=1, horizon_T=2.0)
    with pytest.raises(ValueError, match="horizon"):
        bm.solve_backward(spec, ANGLE)
    with pytest.raises(ValueError, match="horizon"):
        bm.solve_dp(spec, ANGLE)
    with pytest.raises(ValueError, match="horizon"):
        bm.dp_recursion_step(np.zeros(9), spec, ANGLE)


@pytest.mark.parametrize("model", ["diffusive", "counting", "angle"])
def test_one_reading_of_the_dynamics_matches_the_public_encodings(model):
    rng = np.random.default_rng(20)
    params = ModelParams(kappa_s_sq=0.37, alpha=0.61, horizon_T=1.0)
    shape = (9,) if model == "angle" else (9, 8, 9)
    spec = bm.GridSpec(model=model, n_nodes=shape, n_steps=1, horizon_T=1.0)
    geo = spec._geometry
    nodes, drift, sigma, lam = bm._dynamics(spec, params, geo)
    assert np.array_equal(_bits(nodes.T.reshape(geo.flat.shape)), _bits(geo.flat))
    assert (sigma is None) == (model == "counting")
    assert (lam is None) == (model != "counting")
    if model == "angle":
        b = rng.normal(size=len(geo.flat))
        (got,) = drift(b)
        assert np.array_equal(_bits(got), _bits(2.0 * b))
        assert sigma == (2.0 * params.alpha,)
        return
    u = rng.normal(size=(len(geo.flat), 2))
    got = np.stack(drift(*u.T), axis=-1)
    if model == "diffusive":
        assert np.array_equal(_bits(got), _bits(diffusive_drift(geo.flat, u)))
        want = diffusive_diffusion(geo.flat, params)
        assert np.array_equal(_bits(np.stack(sigma, axis=-1)), _bits(want))
    else:
        assert np.array_equal(_bits(got), _bits(counting_drift(geo.flat, u, params)))
        assert np.array_equal(_bits(lam), _bits(jump_intensity(geo.flat, params)))


def _hand_written_counting_bound(geo, control_box, params):
    # the counting FD's stability bound with the control swing of the drift
    # written out by hand, as it stood before the bound read it off the drift
    px, py, pz = geo.flat.T
    lam = jump_intensity(geo.flat, params)
    u_max = control_box if control_box is not None else 0.0
    b0 = counting_drift(geo.flat, np.zeros((len(geo.flat), 2)), params)
    swing = 2.0 * u_max * np.stack([np.abs(pz), np.abs(pz), np.abs(px) + np.abs(py)], axis=-1)
    load = np.sum((np.abs(b0) + swing) / np.asarray(geo.spacings), axis=-1) + lam
    return bm.CFL_SAFETY / float(load.max())


@pytest.mark.parametrize("n", [5, 8, 11, 17, 21, 24, 31])
def test_counting_fd_stability_bound_is_read_off_the_drift(n):
    # one step of horizon just under the hand-written bound is accepted and one
    # just over it refused, so the two bounds agree to 1e-15 relative
    geo = bm.GridSpec(model="counting", n_nodes=n, n_steps=1, horizon_T=1.0)._geometry
    for box in (None, 0.0, 0.5, 1.0, 2.0, 3.7):
        for kappa_s_sq in (0.1, 0.5, 1.0):
            params = ModelParams(kappa_s_sq=kappa_s_sq, horizon_T=1.0)
            bound = _hand_written_counting_bound(geo, box, params)
            for horizon in (bound * (1.0 - 1e-15), bound * (1.0 + 1e-15)):
                spec = bm.GridSpec(model="counting", n_nodes=n, n_steps=1, horizon_T=horizon,
                                   control_box=box)
                if horizon < bound:
                    assert callable(bm._fd_step(spec, params, geo))
                else:
                    with pytest.raises(ValueError, match="stability bound"):
                        bm._fd_step(spec, params, geo)


def _zero_control_limit(geo, model, params):
    # the qubit FD's monotonicity limit at zero control, from the public
    # encodings: 1 / max(sum_i |b_i| / h_i + rate), with the rate 1 / h of the
    # diffusion read at the node +- sqrt(h) sigma, or the jump intensity
    zero = np.zeros((len(geo.flat), 2))
    if model == "diffusive":
        b, rate = diffusive_drift(geo.flat, zero), 1.0 / min(geo.spacings)
    else:
        b, rate = counting_drift(geo.flat, zero, params), jump_intensity(geo.flat, params)
    return 1.0 / float(np.max(np.sum(np.abs(b) / np.asarray(geo.spacings), axis=-1) + rate))


def _nodes_whose_raise_lowers_a_value(step, geo):
    # at box 0 the step is linear and maps the zero slice to 0, so raising
    # node j by 1 moves the new values by the step of the unit slice at j
    zero = np.where(geo.mask, 0.0, np.nan)
    lowered = 0
    for node in geo.cell:
        v = zero.copy()
        v.flat[node] = 1.0
        lowered += bool((step(v)[0] < 0.0).any())
    return lowered


@pytest.mark.parametrize("model, kappa_s_sq", [("diffusive", 0.5), ("diffusive", 1.0),
                                               ("counting", 0.5)])
def test_qubit_fd_step_is_monotone_up_to_its_stability_bound(monkeypatch, model, kappa_s_sq):
    # every active node of 13^3 computed, box 0: raising any one node lowers no
    # new value, and one step keeps a 0/1 slice in [0, 1].  The bound is the
    # monotonicity limit itself: with CFL_SAFETY = 1 the step is monotone just
    # under it and not at 1.05 times it.  (On the counting qubit at
    # kappa_s^2 = 1 the most loaded nodes drop an upwind term at the mask, and
    # the limit lies 5.6 % above the bound.)
    params = ModelParams(kappa_s_sq=kappa_s_sq, horizon_T=1.0)

    def step(delta):
        spec = bm.GridSpec(model=model, n_nodes=13, n_steps=1, horizon_T=delta, control_box=0.0)
        return bm._fd_step(spec, params, geo)

    geo = _full_grid_geometry(bm.GridSpec(model=model, n_nodes=13, n_steps=1, horizon_T=1.0))
    assert geo.cell.size == 925
    zero_one = np.where(geo.mask, np.random.default_rng(21).integers(0, 2, geo.mask.shape), np.nan)
    limit = _zero_control_limit(geo, model, params)
    monkeypatch.setattr(bm, "CFL_SAFETY", 1.0)
    with pytest.raises(ValueError, match="stability bound"):
        step(limit * (1.0 + 1e-12))
    for delta in (1e-3, limit * (1.0 - 1e-9)):
        assert _nodes_whose_raise_lowers_a_value(step(delta), geo) == 0
        new = step(delta)(zero_one)[0]
        assert 0.0 <= new.min() and new.max() <= 1.0
    monkeypatch.setattr(bm, "CFL_SAFETY", 1.05)
    assert _nodes_whose_raise_lowers_a_value(step(1.05 * limit), geo) > 0


# ---------------------------------------------------------------------------
# policy extraction


def test_extract_policy_reproduces_linear_controls_exactly():
    # terminal gradient is constant, controls are linear in p, multilinear
    # interpolation reproduces them to rounding
    spec = bm.GridSpec(model="diffusive", n_nodes=(9, 9, 9), n_steps=0, horizon_T=1.0)
    vg = bm.solve_backward(spec, QUBIT)
    policy = bm.extract_policy(vg)
    q = np.array([[0.3, -0.2, 0.4], [0.0, 0.0, 0.0], [0.5, 0.5, -0.5]])
    np.testing.assert_allclose(
        policy(0.0, q), np.stack([q[:, 0], -q[:, 1]], axis=-1), atol=1e-14
    )
    # states outside the cube are clamped, not rejected
    far = policy(0.0, np.array([[2.0, 0.0, 0.0]]))
    assert np.isfinite(far).all()


def test_extract_policy_picks_nearest_slice_and_checks_time():
    spec = bm.GridSpec(model="angle", n_nodes=(9,), n_steps=4, horizon_T=1.0)
    values = np.tile(spec.axes()[0] ** 2, (5, 1))
    controls = np.arange(5.0)[:, None, None] * np.ones((5, 1, 9))
    vg = bm.ValueGrid(spec=spec, kappa_s_sq=1.0, alpha=0.5,
                      control_mode=bm.CLOSED_FORM, values=values, controls=controls)
    policy = bm.extract_policy(vg)
    assert policy(0.0, 0.3) == pytest.approx(0.0)
    assert policy(0.26, 0.3) == pytest.approx(1.0)
    assert policy(0.9, 0.3) == pytest.approx(4.0)
    assert policy(1.0, 0.3) == pytest.approx(4.0)
    with pytest.raises(ValueError, match="outside"):
        policy(-0.01, 0.3)
    with pytest.raises(ValueError, match="outside"):
        policy(1.01, 0.3)
    with pytest.raises(ValueError, match="outside"):
        policy(np.nan, 0.3)
    # with no steps the slice index is never computed from t: NaN must
    # still be refused
    spec = bm.GridSpec(model="angle", n_nodes=(9,), n_steps=0, horizon_T=1.0)
    vg = bm.ValueGrid(spec=spec, kappa_s_sq=1.0, alpha=0.5, control_mode=bm.CLOSED_FORM,
                      values=values[:1], controls=controls[:1])
    policy = bm.extract_policy(vg)
    assert policy(1.0, 0.3) == pytest.approx(0.0)
    with pytest.raises(ValueError, match="outside"):
        policy(np.nan, 0.3)


@pytest.mark.parametrize("model, n_nodes, params, state", [
    ("diffusive", 5, QUBIT, [np.nan, 0.0, 0.2]),
    ("diffusive", 5, QUBIT, [[0.1, 0.0, 0.2], [0.0, np.inf, 0.0]]),
    ("angle", 9, ANGLE, np.nan),
    ("angle", 9, ANGLE, [0.3, -np.inf]),
], ids=["box-nan", "box-inf-row", "circle-nan", "circle-inf-row"])
def test_extract_policy_refuses_a_non_finite_state(model, n_nodes, params, state):
    # the plan casts its coordinates to node indices: a NaN would warn there
    # and read a NaN control, so the query is refused before the cast
    spec = bm.GridSpec(model=model, n_nodes=n_nodes, n_steps=0, horizon_T=1.0)
    policy = bm.extract_policy(bm.solve_backward(spec, params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite state"):
            policy(0.0, state)
        assert np.isfinite(policy(0.0, np.nan_to_num(state, posinf=0.5, neginf=-0.5))).all()


def test_extract_policy_angle_is_odd():
    spec = bm.GridSpec(model="angle", n_nodes=(201,), n_steps=2500, horizon_T=1.0)
    vg = bm.solve_backward(spec, ANGLE)
    policy = bm.extract_policy(vg)
    th = np.linspace(-1.5, 1.5, 7)
    np.testing.assert_allclose(policy(0.3, th), -policy(0.3, -th), atol=1e-9)


def _reference_interp_periodic(values, theta):
    # the angle's own interpolation encoding as it stood before the circle
    # read through the per-axis plan
    theta = np.asarray(theta, dtype=float)
    n = values.size
    h = 2.0 * np.pi / n
    f = (theta + np.pi) / h
    i0 = np.floor(f).astype(int)
    w = f - i0
    i0 = np.mod(i0, n)
    return values[i0] * (1.0 - w) + values[np.mod(i0 + 1, n)] * w


@pytest.mark.parametrize("n", [8, 33, 37, 201])
def test_periodic_plan_reads_match_the_old_angle_encoding(n):
    rng = np.random.default_rng(n)
    spec = bm.GridSpec(model="angle", n_nodes=n, n_steps=3, horizon_T=1.0)
    geo = spec._geometry
    theta = np.concatenate([rng.uniform(-10.0, 10.0, 2000), spec.axes()[0],
                            [-np.pi, np.pi, 3.0 * np.pi, -3.0 * np.pi]])
    for _ in range(5):
        v = rng.normal(size=n)
        got = bm._interp_slice(geo, v, theta)
        assert np.array_equal(_bits(got), _bits(_reference_interp_periodic(v, theta)))
    controls = rng.normal(size=(4, 1, n))
    vg = bm.ValueGrid(spec=spec, kappa_s_sq=1.0, alpha=0.5, control_mode=bm.CLOSED_FORM,
                      values=np.zeros((4, n)), controls=controls)
    policy = bm.extract_policy(vg)
    for t, k in ((0.0, 0), (0.5, 2), (1.0, 3)):
        got = policy(t, theta)
        assert got.shape == theta.shape
        want = _reference_interp_periodic(controls[k, 0], theta)
        assert np.array_equal(_bits(got), _bits(want))


def test_angle_policy_pads_only_the_slice_it_reads():
    # the wrap node is appended per query, never to a copy of every slice
    spec = bm.GridSpec(model="angle", n_nodes=101, n_steps=2000, horizon_T=1.0)
    controls = np.random.default_rng(3).normal(size=(2001, 1, 101))
    vg = bm.ValueGrid(spec=spec, kappa_s_sq=1.0, alpha=0.5, control_mode=bm.CLOSED_FORM,
                      values=np.zeros((2001, 101)), controls=controls)
    theta = np.linspace(-4.0, 4.0, 256)

    def build_and_query():
        policy = bm.extract_policy(vg)
        return [policy(t, theta) for t in (0.0, 0.4, 1.0)]

    _, peak = _traced_peak(build_and_query)
    assert peak < 0.1 * controls.nbytes


# ---------------------------------------------------------------------------
# the solved feedback holds up in simulation


def test_grid_policy_beats_baselines_in_simulation():
    spec = bm.GridSpec(model="angle", n_nodes=(201,), n_steps=2500, horizon_T=1.0)
    policy = bm.extract_policy(bm.solve_backward(spec, ANGLE))
    n, seed = 3000, 7
    grid = tj.run_batch("angle", policy, 1.0, ANGLE, dt=1e-2, n_paths=n, seed=seed)
    zero = tj.run_batch("angle", tj.zero_policy("angle"), 1.0, ANGLE,
                        dt=1e-2, n_paths=n, seed=seed)
    const = tj.run_batch("angle", tj.constant_policy("angle", -0.5), 1.0, ANGLE,
                         dt=1e-2, n_paths=n, seed=seed)
    assert grid.mean < zero.mean - 3.0 * np.hypot(grid.stderr, zero.stderr)
    assert grid.mean < const.mean - 3.0 * np.hypot(grid.stderr, const.stderr)


def test_qubit_grid_policy_not_worse_than_baselines():
    params = ModelParams(kappa_s_sq=1.0, kappa_f_sq=0.0, horizon_T=0.5)
    spec = bm.GridSpec(model="diffusive", n_nodes=(11, 11, 11), n_steps=500,
                       horizon_T=0.5, control_box=2.0)
    policy = bm.extract_policy(bm.solve_backward(spec, params))
    x0 = np.array([1.0, 0.0, 0.0])
    n, seed = 3000, 7
    grid = tj.run_batch("diffusive", policy, x0, params, dt=1e-2, n_paths=n, seed=seed)
    zero = tj.run_batch("diffusive", tj.zero_policy("diffusive"), x0, params,
                        dt=1e-2, n_paths=n, seed=seed)
    const = tj.run_batch("diffusive", tj.constant_policy("diffusive", (0.5, 0.0)),
                         x0, params, dt=1e-2, n_paths=n, seed=seed)
    # clearly better than doing nothing
    assert grid.mean < zero.mean - 3.0 * np.hypot(grid.stderr, zero.stderr)
    # statistically indistinguishable from a hand-tuned constant drive
    assert grid.mean < const.mean + 3.0 * np.hypot(grid.stderr, const.stderr)
