"""Tests for the grid solvers: pointwise formulas, stencils, sweeps, files."""

import hashlib
import json
import os
import threading
import tracemalloc

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


# sha256 of the .vgrid bytes of every solver on one small grid per model,
# recorded before the per-model record replaced the model branches in the
# solvers and the file header.
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
    ("diffusive", "fd"): "a5ff7503cfe61293c712d9cce0ca0bc2c9cec549d15bc651f93c38bbb24f7559",
    ("diffusive", "closed-form"): "14fa4d65c95c3915cbcd17d2a7caf2a1e692a84db8becba4a6e49e841f1a362f",
    ("diffusive", "exhaustive"): "a41188b91044382843e84435b416321fd69da3517af5b72cc22e25fc5c2bcc1f",
    ("counting", "fd"): "b6baa82574a993b3dd71ba5de64d7947a4248fbcf99f3c116196b9bce5cdc16e",
    ("counting", "closed-form"): "508906f76f9e85eb06d03dd3cc27835699479df10ec4bcb8479a08d882e6d790",
    ("counting", "exhaustive"): "15a2ee12b9f9eebbcc4629bad8a5d4afaed439d24d873a5c2326a6c7b1fe32c0",
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


def _reference_diffusion(values, sigma, spacings):
    total = np.zeros_like(values)
    ndim = len(spacings)
    for axis, h in enumerate(spacings):
        vp = _shift(values, axis, +1)
        vm = _shift(values, axis, -1)
        d2 = np.where(np.isfinite(vp) & np.isfinite(vm), (vp - 2.0 * values + vm) / (h * h), 0.0)
        total = total + 0.5 * sigma[..., axis] ** 2 * d2
    for i in range(ndim):
        for j in range(i + 1, ndim):
            vpp = _shift(_shift(values, i, +1), j, +1)
            vpm = _shift(_shift(values, i, +1), j, -1)
            vmp = _shift(_shift(values, i, -1), j, +1)
            vmm = _shift(_shift(values, i, -1), j, -1)
            ok = np.isfinite(vpp) & np.isfinite(vpm) & np.isfinite(vmp) & np.isfinite(vmm)
            cross = np.where(ok, (vpp - vpm - vmp + vmm) / (4.0 * spacings[i] * spacings[j]), 0.0)
            total = total + sigma[..., i] * sigma[..., j] * cross
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
        got = bm._interp_box(filled, axes, pts)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))


def test_interp_plan_applied_to_a_stack_matches_one_call_per_slice():
    rng = np.random.default_rng(13)
    spec = bm.GridSpec(model="diffusive", n_nodes=(9, 8, 9), n_steps=1, horizon_T=1.0)
    axes = spec.axes()
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
        got = bm._interp_apply(stack, bm._interp_plan(axes, pts))
        assert got.shape == pts.shape[:-1] + (2,)
        for c in range(2):
            assert np.array_equal(_bits(got[..., c]), _bits(bm._interp_box(stack[c], axes, pts)))


def test_qubit_grid_policy_matches_clipped_per_component_reads():
    # the policy no longer clips the state itself: the plan's clamp to the
    # cube [-1, 1]^3 gives the same bits as clipping first
    params = ModelParams(kappa_s_sq=0.8, horizon_T=0.3)
    spec = bm.GridSpec(model="counting", n_nodes=7, n_steps=30, horizon_T=0.3,
                       control_box=1.0)
    vg = bm.solve_backward(spec, params)
    policy = bm.extract_policy(vg)
    axes = spec.axes()
    mask = spec.active_mask()
    plan = bm._fill_plan(~mask, mask)
    states = np.random.default_rng(14).uniform(-1.5, 1.5, size=(200, 3))
    states[:4] = [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [1.0, 1.0, 1.0], [-2.0, 0.5, 3.0]]
    for t, k in ((0.0, 0), (0.1, 10), (0.3, 30)):
        q = np.clip(states, -1.0, 1.0)
        want = np.stack([bm._interp_box(bm._fill_inactive(vg.controls[k, c], plan), axes, q)
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
    sigma = rng.normal(size=shape + (3,))
    g = geo.gather(values)
    assert g.shape == (3, 3, 3, np.count_nonzero(mask))
    for limited in (False, True):
        want = _reference_gradient(values, spacings, limited)[mask]
        assert np.array_equal(_bits(bm._gradient(g, spacings, limited)), _bits(want))
    want = _reference_advection(values, drift, spacings)[mask]
    assert np.array_equal(_bits(bm._advection_upwind(g, drift[mask].T, spacings)), _bits(want))
    want = _reference_diffusion(values, sigma, spacings)[mask]
    assert np.array_equal(_bits(bm._diffusion_term(g, sigma[mask].T, spacings)), _bits(want))


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
    got = bm._diffusion_term(g, (2.0 * params.alpha,), geo.spacings)
    assert np.array_equal(_bits(got), _bits(diffusion * second))
    # the feedback and the right-hand side of one FD step, as the rolled forms gave them
    slope, b = bm._feedback(g, spec, geo)
    assert np.array_equal(_bits(b), _bits(np.clip(-central, -0.5, 0.5)))
    rhs = bm._fd_rhs_angle(spec, params, geo)(v, g, slope, b)
    assert np.array_equal(_bits(rhs), _bits(b * b + 2.0 * b * central + diffusion * second))


@pytest.mark.parametrize("n, shell, active", [(17, 872, 2109), (21, 1440, 4169),
                                              (31, 3320, 14147)])
def test_neighbour_table_counts_the_nodes_with_a_dropped_stencil_term(n, shell, active):
    # the FD stencils read the axis and in-plane diagonal neighbours; a node
    # with one of them masked or off the grid drops a term
    geo = bm.GridSpec(model="diffusive", n_nodes=n, n_steps=1, horizon_T=1.0)._geometry
    table = geo.neighbours
    assert table.shape == (3, 3, 3, active)
    assert np.array_equal(table[0, 0, 0], np.flatnonzero(geo.mask))
    # the +x neighbour of the node (1, 0, 0) is off the grid: the sentinel
    assert table[1, 0, 0][np.argmax(geo.flat[:, 0])] == geo.mask.size
    readable = np.append(geo.mask.ravel(), False)[table]
    stencil = [at for at in np.ndindex(3, 3, 3) if 0 < np.count_nonzero(at) <= 2]
    dropped = ~np.all([readable[at] for at in stencil], axis=0)
    assert np.count_nonzero(dropped) == shell


def test_angle_neighbour_table_wraps():
    n = 37
    table = bm.GridSpec(model="angle", n_nodes=n, n_steps=1, horizon_T=1.0)._geometry.neighbours
    assert table.shape == (3, n)
    assert table[-1, 0] == n - 1 and table[1, n - 1] == 0
    assert np.array_equal(table[0], np.arange(n))
    assert (table < n).all()


def test_exhaustive_angle_dp_step_scans_candidates_in_blocks(monkeypatch):
    # the angle shares the blocked control scan: each block of DP_BLOCK
    # candidates is one objective call, i.e. two periodic reads
    calls = []
    read = bm._interp_periodic

    def counted(values, theta):
        calls.append(np.shape(theta))
        return read(values, theta)

    monkeypatch.setattr(bm, "_interp_periodic", counted)
    spec = bm.GridSpec(model="angle", n_nodes=(33,), n_steps=10, horizon_T=1.0,
                       control_box=2.0, control_resolution=9)
    theta = spec.axes()[0]
    bm.dp_recursion_step(theta**2, spec, ANGLE, bm.EXHAUSTIVE)
    assert len(calls) == 2 * -(-9 // bm.DP_BLOCK) == 6
    assert calls[0] == (bm.DP_BLOCK, 33)


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


def test_extract_policy_angle_is_odd():
    spec = bm.GridSpec(model="angle", n_nodes=(201,), n_steps=2500, horizon_T=1.0)
    vg = bm.solve_backward(spec, ANGLE)
    policy = bm.extract_policy(vg)
    th = np.linspace(-1.5, 1.5, 7)
    np.testing.assert_allclose(policy(0.3, th), -policy(0.3, -th), atol=1e-9)


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
