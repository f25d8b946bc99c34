import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cubature, quad

from wavemetric import geometry as geo
from wavemetric import grids, systems, verify
from wavemetric import velocity as vel
from wavemetric.errors import (
    DomainEvalError,
    MajorantError,
    UnsupportedSystemError,
    ValidationError,
)

from grid_windows import closure_grid
from lattice_oracle import lattice_graph_every_slot
from metric_oracle import metric_every_eigh


def const_metric(domain, shape, G):
    grid = closure_grid(domain, shape)
    G = np.asarray(G, dtype=float)
    samples = np.broadcast_to(G, grid.shape + G.shape).copy()
    return geo.MetricField(grid, samples)


def iso_field(grid, speed):
    """The velocity field of an isotropic medium of node speeds c: M = c^2 I."""
    M = np.zeros(grid.shape + (grid.d, grid.d))
    diagonal = np.arange(grid.d)
    M[..., diagonal, diagonal] = (np.asarray(speed, dtype=float) ** 2)[..., None]
    return vel.VelocityField(grid, M)


def unit_square_metric(n, size=None):
    size = float(n - 1) if size is None else size
    dom = systems.BoxDomain((0.0, 0.0), (size, size))
    return const_metric(dom, (n, n), np.eye(2))


# -- stencils ---------------------------------------------------------------

def test_stencil_bound_constants():
    assert geo.STENCIL_BOUNDS[8] == pytest.approx(1.0823922002923940, abs=1e-15)
    assert geo.STENCIL_BOUNDS[26] == pytest.approx(1.1280928107595818, abs=1e-15)
    assert geo.STENCIL_BOUNDS[16] == pytest.approx(1.0274862967460157, abs=1e-15)
    assert geo.STENCIL_BOUNDS[2] == 1.0


def test_stencil_offsets_counts():
    assert geo.stencil_offsets(1)[1].shape == (2, 1)
    assert geo.stencil_offsets(2)[1].shape == (8, 2)
    assert geo.stencil_offsets(2, 16)[1].shape == (16, 2)
    assert geo.stencil_offsets(3)[1].shape == (26, 3)


def test_stencil_offsets_are_mirrored():
    # the graph builder weighs slot k and slot size-1-k as one undirected edge
    for d, stencils in geo._ALLOWED_STENCILS.items():
        for stencil in stencils:
            _, offsets = geo.stencil_offsets(d, stencil)
            assert np.array_equal(offsets[::-1], -offsets)


def test_stencil_rejects_mismatched_choice():
    with pytest.raises(ValueError, match="not available"):
        geo.stencil_offsets(3, 16)


# -- geodesic distances -----------------------------------------------------

def test_unit_grid_distance_3_4():
    metric = unit_square_metric(9)
    dist = geo.lattice_geodesic(metric, [(0, 0)])
    assert dist.values[0, 0] == 0.0
    assert dist.values[3, 4] == pytest.approx(3.0 * math.sqrt(2.0) + 1.0, rel=1e-12)


def test_anisotropic_axis_distance():
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    metric = const_metric(dom, (65, 65), np.diag([0.25, 1.0]))
    dist = geo.lattice_geodesic(metric, [(0, 0)])
    assert dist.values[64, 0] == pytest.approx(0.5, abs=1e-12)


def test_1d_distance_matches_quadrature():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = closure_grid(dom, (4096,))
    x = grid.axes[0]
    c = 1.0 / np.sqrt((1.0 + 0.5 * np.sin(3.0 * x)) * 2.0)  # c = (L C)^{-1/2}
    G = (1.0 / (2.0 * c**2)).reshape(-1, 1, 1)
    metric = geo.MetricField(grid, G)
    dist = geo.lattice_geodesic(metric, [(0,)])
    ref, _ = quad(
        lambda t: math.sqrt((1.0 + 0.5 * math.sin(3.0 * t)) * 2.0) / math.sqrt(2.0),
        0.0,
        1.0,
        limit=200,
    )
    assert dist.values[-1] == pytest.approx(ref, rel=5e-3)


def test_distance_zero_on_sources_and_triangle_inequality():
    rng = np.random.default_rng(41)
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    grid = grids.Grid(dom, (16, 16))
    a = rng.standard_normal((16, 16, 2, 2))
    G = a @ np.swapaxes(a, -1, -2) + 0.3 * np.eye(2)
    metric = geo.MetricField(grid, G)
    sources = [(2, 3), (12, 9)]
    dist = geo.lattice_geodesic(metric, sources)
    for s in sources:
        assert dist.values[s] == 0.0
    h = grid.spacing
    _, offsets = geo.stencil_offsets(2)
    for off in offsets:
        dx = off * np.asarray(h)
        su = tuple(slice(max(0, -o), min(16, 16 - o)) for o in off)
        sv = tuple(slice(max(0, o), min(16, 16 + o)) for o in off)
        Gm = 0.5 * (metric.G_samples[su] + metric.G_samples[sv])
        w = np.sqrt(np.einsum("i,...ij,j->...", dx, Gm, dx))
        gap = np.abs(dist.values[su] - dist.values[sv])
        assert np.all(gap <= w + 1e-9)


def assert_consistency_ratio(metric, stencil, attained):
    """From the corner node, lattice distances under the identity metric lie
    between the Euclidean distance and the stencil's consistency bound times
    it, and the bound is attained to within ``attained``."""
    corner = (0,) * metric.grid.d
    dist = geo.lattice_geodesic(metric, [corner], stencil=stencil)
    bound = verify.get_check("geometry.stencil_consistency_bound")
    excess = bound.residual((dist, corner))
    assert -attained <= excess <= bound.tolerance
    assert np.all(dist.values >= (1.0 - 1e-12) * np.linalg.norm(metric.grid.coords(), axis=-1))


def test_consistency_ratio_2d():
    assert_consistency_ratio(unit_square_metric(65), None, 1e-3)


def test_consistency_ratio_2d_extended_stencil():
    assert_consistency_ratio(unit_square_metric(65), 16, 1e-3)


def test_consistency_ratio_3d():
    dom = systems.BoxDomain((0.0,) * 3, (16.0,) * 3)
    assert_consistency_ratio(const_metric(dom, (17, 17, 17), np.eye(3)), None, 2e-3)


def test_deterministic_under_source_order():
    rng = np.random.default_rng(42)
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    grid = grids.Grid(dom, (24, 24))
    a = rng.standard_normal((24, 24, 2, 2))
    G = a @ np.swapaxes(a, -1, -2) + 0.2 * np.eye(2)
    metric = geo.MetricField(grid, G)
    sources = [(0, 0), (23, 23), (5, 17), (11, 11)]
    order = verify.get_check("geometry.source_order_invariance")
    assert order.residual((metric, sources, sources[::-1])) <= order.tolerance


def test_metric_monotonicity():
    rng = np.random.default_rng(43)
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    grid = grids.Grid(dom, (12, 12))
    for _ in range(3):
        a = rng.standard_normal((12, 12, 2, 2))
        G2 = a @ np.swapaxes(a, -1, -2) + 0.2 * np.eye(2)
        v = rng.standard_normal((12, 12, 2, 1))
        G1 = G2 + v @ np.swapaxes(v, -1, -2)
        d1 = geo.lattice_geodesic(geo.MetricField(grid, G1), [(0, 0)])
        d2 = geo.lattice_geodesic(geo.MetricField(grid, G2), [(0, 0)])
        assert np.all(d1.values >= d2.values - 1e-12)


def test_metric_field_rejects_indefinite_node():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (8,))
    G = np.tile(np.eye(1), (8, 1, 1))
    G[5] = -1.0
    with pytest.raises(ValidationError, match=r"node \(5,\)"):
        geo.MetricField(grid, G)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_metric_field_rejects_non_finite_node(bad):
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    grid = grids.Grid(dom, (8, 8))
    G = np.tile(np.eye(2), (8, 8, 1, 1))
    G[3, 3, 0, 1] = bad
    with pytest.raises(ValidationError, match=r"not finite at node \(3, 3\)"):
        geo.MetricField(grid, G)


def test_empty_sources_rejected():
    metric = unit_square_metric(9)
    with pytest.raises(ValueError, match="at least one source"):
        geo.lattice_geodesic(metric, [])


@pytest.mark.parametrize("sources,match", [
    ([(1, 2, 3)], r"source index \(1, 2, 3\) does not match grid rank 2"),
    ([(0, 9)], r"source index \(0, 9\) outside grid shape \(9, 9\)"),
    ([], "at least one source node is required"),
], ids=["rank", "range", "empty"])
def test_bad_sources_raise_validation_error(sources, match):
    metric = unit_square_metric(9)
    with pytest.raises(ValidationError, match=match):
        geo.lattice_geodesic(metric, sources)
    with pytest.raises(ValidationError, match=match):
        geo.eikonal_arrival(metric.grid, iso_field(metric.grid, 1.0), sources)


def test_bad_arrival_speeds_raise_validation_error():
    grid = unit_square_metric(9).grid
    other = grids.Grid(grid.domain, (8, 8))
    fld = vel.VelocityField(other, np.broadcast_to(np.eye(2), (8, 8, 2, 2)).copy())
    with pytest.raises(ValidationError, match="velocity field grid does not match"):
        geo.eikonal_arrival(grid, fld, [(0, 0)])
    with pytest.raises(ValidationError, match="arrival times need a VelocityField, got ndarray"):
        geo.eikonal_arrival(grid, np.ones((9, 9)), [(0, 0)])


def test_distance_csv(tmp_path):
    metric = unit_square_metric(9)
    dist = geo.lattice_geodesic(metric, [(0, 0)])
    p = tmp_path / "dist.csv"
    dist.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "x1,x2,value"
    assert len(lines) == 1 + 81


# -- metric from velocity ---------------------------------------------------

def test_metric_inverts_majorant():
    dom = systems.BoxDomain((0.0,), (2.0,))
    sysm = systems.telegraph(L="1 + 0.5*x", C="1", domain=dom)
    grid = grids.Grid(dom, (32,))
    fld = vel.majorant(vel.VelocityField.from_system(sysm, grid), 0.1)
    metric = geo.metric_from_velocity(fld)
    assert not metric.degenerate
    prod = metric.G_samples @ fld.majorant_samples
    assert np.allclose(prod, np.eye(1), atol=1e-10)


def test_metric_requires_majorant():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (8,))
    fld = vel.VelocityField(grid, np.ones((8, 1, 1)))
    with pytest.raises(MajorantError, match="majorant"):
        geo.metric_from_velocity(fld)


def test_metric_caps_degenerate_majorant():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (16,))
    fld = vel.VelocityField(grid, np.zeros((16, 1, 1)))
    with pytest.warns(UserWarning):
        fld = vel.majorant(fld, 0.1)
        metric = geo.metric_from_velocity(fld)
    assert metric.degenerate
    assert np.all(metric.G_samples <= 1e12 * (1 + 1e-6))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_metric_inversion_matches_three_operand_einsum(d):
    shape = {1: (40,), 2: (9, 8), 3: (8, 9, 8)}[d]
    grid = grids.Grid(systems.BoxDomain((0.0,) * d, (1.0,) * d), shape)
    rng = np.random.default_rng(23 + d)
    A = rng.normal(size=shape + (d, d))
    H = A @ np.swapaxes(A, -1, -2) + 0.05 * np.eye(d)
    flat = H.reshape(-1, d, d)
    flat[3] = 1e-15 * np.eye(d)  # capped: every eigenvalue below the floor
    flat[4] = np.outer(A.reshape(-1, d, d)[4, 0], A.reshape(-1, d, d)[4, 0])  # rank one
    flat[5] = 0.0
    fld = vel.VelocityField(grid, np.zeros(shape + (d, d)), majorant_samples=H)
    with pytest.warns(UserWarning, match="capped"):
        metric = geo.metric_from_velocity(fld)
    assert metric.degenerate
    w, u = np.linalg.eigh(H)
    floor = max(vel.EPS_REG_REL * float(np.linalg.norm(H, axis=(-2, -1)).max()),
                vel.EPS_REG_FLOOR)
    G = np.einsum("...ij,...j,...kj->...ik", u, 1.0 / np.maximum(w, floor), u)
    want = geo.MetricField(grid, G).G_samples
    assert np.array_equal(metric.G_samples.view(np.uint64), want.view(np.uint64))


def _warned(fn, *args):
    """fn(*args) and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [str(w.message) for w in caught]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(d=st.integers(1, 3), kind=st.sampled_from(["diagonal", "capped", "full", "mixed"]),
       seed=st.integers(0, 2**16), exponent=st.integers(-20, 20))
def test_metric_inversion_matches_eigh_at_every_node(d, kind, seed, exponent):
    # diagonal majorants skip LAPACK; capped ones put exact zeros and tiny
    # entries on the diagonal; full and mixed stacks take the eigh path
    shape = (9, 8, 8)[:d]
    grid = grids.Grid(systems.BoxDomain((0.0,) * d, (1.0,) * d), shape)
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    H = np.zeros(shape + (d, d))
    axes = np.arange(d)
    H[..., axes, axes] = scale * rng.uniform(0.1, 10.0, size=shape + (d,))
    flat = H.reshape(-1, d, d)
    if kind == "capped":
        flat[2, 0, 0] = 0.0
        flat[5] = 1e-15 * scale * np.eye(d)
        flat[7, -1, -1] = 1e-13 * scale
    if kind == "full":
        A = rng.normal(size=shape + (d, d))
        H = scale * (A @ np.swapaxes(A, -1, -2) + 0.05 * np.eye(d))
    if kind == "mixed" and d > 1:
        flat[3, 1, 0] = flat[3, 0, 1] = 0.1 * np.sqrt(flat[3, 0, 0] * flat[3, 1, 1])
    fld = vel.VelocityField(grid, np.zeros(shape + (d, d)), majorant_samples=H)
    metric, warned = _warned(geo.metric_from_velocity, fld)
    (G, degenerate), want_warned = _warned(metric_every_eigh, fld)
    assert metric.G_samples.tobytes() == G.tobytes()
    assert metric.degenerate == degenerate
    assert degenerate or kind != "capped"  # majorants below 1e-12 are all capped
    assert warned == want_warned


# -- arrival times ----------------------------------------------------------

def test_arrival_constant_speed_1d():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = closure_grid(dom, (65,))
    arr = geo.eikonal_arrival(grid, iso_field(grid, 2.0), [(0,)])
    assert np.allclose(arr.values, grid.axes[0] / 2.0, atol=1e-12)


def test_arrival_from_velocity_matrix():
    # telegraph with c = 1: M = 2, directional speed sqrt(2)
    dom = systems.BoxDomain((-1.0,), (1.0,))
    grid = closure_grid(dom, (64,))
    fld = vel.VelocityField(grid, np.full((64, 1, 1), 2.0))
    mid = (31,)
    arr = geo.eikonal_arrival(grid, fld, [mid])
    expected = np.abs(grid.axes[0] - grid.axes[0][31]) / math.sqrt(2.0)
    assert np.allclose(arr.values, expected, atol=1e-12)


def test_arrival_2d_unit_speed_matches_geodesic_example():
    dom = systems.BoxDomain((0.0, 0.0), (8.0, 8.0))
    grid = closure_grid(dom, (9, 9))
    arr = geo.eikonal_arrival(grid, iso_field(grid, 1.0), [(0, 0)])
    assert arr.values[3, 4] == pytest.approx(3.0 * math.sqrt(2.0) + 1.0, rel=1e-12)


def test_arrival_impassable_nodes():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = closure_grid(dom, (16,))
    speed = np.ones(16)
    speed[8] = 0.0  # wall
    arr = geo.eikonal_arrival(grid, iso_field(grid, speed), [(0,)])
    assert np.all(np.isinf(arr.values[8:]))
    assert np.all(np.isfinite(arr.values[:8]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_arrival_rejects_non_finite_speed(bad):
    # the velocity field of the arrival rejects the node before any search
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    grid = grids.Grid(dom, (8, 8))
    speed = np.ones((8, 8))
    speed[2, 5] = bad
    with pytest.raises(ValueError, match=r"not finite at node \(2, 5\)"):
        geo.eikonal_arrival(grid, iso_field(grid, speed), [(0, 0)])


def test_arrival_skips_excluded_ball():
    dom = systems.BoxDomain(
        (-1.0, -1.0), (1.0, 1.0),
        excluded_ball=((0.0, 0.0), 0.4),
    )
    grid = closure_grid(dom, (33, 33))
    arr = geo.eikonal_arrival(grid, iso_field(grid, 1.0), [(0, 0)])
    center = (16, 16)
    assert math.isinf(arr.values[center])
    # opposite corner is reachable by going around the ball
    assert math.isfinite(arr.values[32, 32])
    assert arr.values[32, 32] > 2.0 * math.sqrt(2.0) - 1e-9


def _bellman_ford(grid, offsets, passable, weight, sources):
    """Brute-force lattice distances: relax every edge until nothing changes.

    An edge u -> v runs along a stencil offset to an in-grid passable head;
    ``weight(u, v, dx)`` gives its weight, or None where the edge is dropped.
    """
    shape = grid.shape
    spacing = np.asarray(grid.spacing)
    tails, heads, weights = [], [], []
    for u in np.ndindex(shape):
        for off in offsets:
            v = tuple(int(i + o) for i, o in zip(u, off))
            if not all(0 <= i < n for i, n in zip(v, shape)) or not passable[v]:
                continue
            w = weight(u, v, off * spacing)
            if w is not None:
                tails.append(np.ravel_multi_index(u, shape))
                heads.append(np.ravel_multi_index(v, shape))
                weights.append(w)
    tails, heads, weights = np.array(tails), np.array(heads), np.array(weights)
    dist = np.full(grid.node_count, np.inf)
    for s in sources:
        dist[np.ravel_multi_index(s, shape)] = 0.0
    for _ in range(grid.node_count):
        new = dist.copy()
        np.minimum.at(new, heads, dist[tails] + weights)
        if np.array_equal(new, dist):
            break
        dist = new
    return dist.reshape(shape)


@pytest.mark.parametrize("shape", [(11, 13), (8, 9, 8)], ids=["2d", "3d"])
def test_lattice_edge_rules_match_bellman_ford(shape):
    d = len(shape)
    center = (0.1,) + (0.0,) * (d - 1)
    dom = systems.BoxDomain((-1.0,) * d, (1.0,) * (d - 1) + (1.2,), excluded_ball=(center, 0.35))
    grid = closure_grid(dom, shape)
    _, offsets = geo.stencil_offsets(d)
    outside = np.linalg.norm(grid.coords() - np.asarray(center), axis=-1) > 0.35
    rng = np.random.default_rng(5)

    A = rng.normal(size=shape + (d, d))
    G = np.einsum("...ab,...cb->...ac", A, A) + 0.2 * np.eye(d)
    # velocity matrices: zero on a slab (impassable), rank one along the first
    # axis on another, so edges with a component across it have q = 0 and drop
    M = np.einsum("...ab,...cb->...ac", A, A)
    M[1] = 0.0
    e0 = np.zeros((d, d))
    e0[0, 0] = 1.0
    M[:, 2] = e0
    m_scale = np.sqrt(np.maximum(np.linalg.eigvalsh(M)[..., -1], 0.0))

    def geodesic(u, v, dx):
        return math.sqrt(dx @ (0.5 * (G[u] + G[v])) @ dx)

    def aniso(u, v, dx):
        q = dx @ (0.5 * (M[u] + M[v])) @ dx
        return None if q <= 0.0 else (dx @ dx) / math.sqrt(q)

    # an impassable source inside the ball with a passable stencil neighbour
    walled = next(
        u for u in np.ndindex(shape) if not outside[u] and any(
            all(0 <= i + o < n for i, o, n in zip(u, off, shape))
            and outside[tuple(i + o for i, o in zip(u, off))]
            for off in offsets
        )
    )
    runs = [
        (lambda src: geo.lattice_geodesic(geo.MetricField(grid, G), src), outside, geodesic),
        (lambda src: geo.eikonal_arrival(grid, vel.VelocityField(grid, M), src),
         outside & (m_scale >= 1e-12 * m_scale.max()), aniso),
    ]
    for compute, passable, weight in runs:
        neighbours = [
            tuple(i + o for i, o in zip(walled, off)) for off in offsets
            if all(0 <= i + o < n for i, o, n in zip(walled, off, shape))
            and passable[tuple(i + o for i, o in zip(walled, off))]
        ]
        assert neighbours
        for sources in ([walled], [walled, (0,) * d]):
            got = compute(sources).values
            want = _bellman_ford(grid, offsets, passable, weight, sources)
            assert got[walled] == 0.0
            assert all(np.isfinite(got[v]) for v in neighbours)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _graph_inputs(d, interior):
    """A grid with an excluded ball, random impassable nodes and per-mode inputs.

    ``interior`` puts the nodes strictly inside the window; otherwise the end
    nodes lie on its edges (see ``grid_windows``).

    G is random SPD.  M is zero on a slab two nodes wide and rank one along
    the first axis on another, so anisotropic edges inside the first, and
    edges inside the second that do not move along the first axis, have
    q = 0 and drop.
    """
    shape = {1: (23,), 2: (9, 11), 3: (8, 9, 8)}[d]
    center = (0.1,) + (0.0,) * (d - 1)
    dom = systems.BoxDomain((-1.0,) * d, (1.0,) * (d - 1) + (1.3,), excluded_ball=(center, 0.35))
    grid = grids.Grid(dom, shape) if interior else closure_grid(dom, shape)
    rng = np.random.default_rng(31 + d)
    A = rng.normal(size=shape + (d, d))
    G = A @ np.swapaxes(A, -1, -2) + 0.2 * np.eye(d)
    M = A @ np.swapaxes(A, -1, -2)
    M[1:3] = 0.0
    M[..., 4:6, :, :] = 0.0
    M[..., 4:6, 0, 0] = 1.0
    passable = geo._passable_mask(grid) & (rng.random(shape) > 0.1)
    mats = {
        geo.GEODESIC: geo.MetricField(grid, G).G_samples,
        geo.ARRIVAL_TIME: vel.VelocityField(grid, M).M_samples,
    }
    return grid, mats, passable


def _plane_case(grid, mats, case):
    """The metric or M of a case whose entry planes are zero or constant.

    ``diagonal``: the random G with its off-diagonal planes zeroed.
    ``zero-off-diagonal``: the random M with its (0, d-1) plane pair zeroed
    (in 1-D, the random M).  ``constant``: one SPD G at every node.  ``constant-diagonal``:
    M = diag(0.5, 1, 2, ...) at every node; the ball stays impassable.
    """
    d = grid.d
    if case == "diagonal":
        G = mats[geo.GEODESIC] * np.eye(d)
        return geo.MetricField(grid, G).G_samples
    if case == "zero-off-diagonal":
        # adding [[|e|, -e], [-e, |e|]] on axes 0 and d-1 zeroes e and keeps M PSD
        M = mats[geo.ARRIVAL_TIME].copy()
        if d > 1:
            e = np.abs(M[..., 0, d - 1])
            M[..., 0, 0] += e
            M[..., d - 1, d - 1] += e
            M[..., 0, d - 1] = M[..., d - 1, 0] = 0.0
        return vel.VelocityField(grid, M).M_samples
    if case == "constant":
        A = np.arange(1.0, d * d + 1.0).reshape(d, d) / (d * d)
        G = np.broadcast_to(A @ A.T + 0.3 * np.eye(d), grid.shape + (d, d))
        return geo.MetricField(grid, G.copy()).G_samples
    M = np.broadcast_to(np.diag(2.0 ** np.arange(-1.0, d - 1.0)), grid.shape + (d, d))
    return vel.VelocityField(grid, M.copy()).M_samples


# the random inputs of each mode, then metrics and M with whole zero or
# constant entry planes, which the builder skips or reads as planes
_GRAPH_CASES = {
    "geodesic": (geo.GEODESIC, None),
    "aniso": (geo.ARRIVAL_TIME, None),
    "geodesic-diagonal": (geo.GEODESIC, "diagonal"),
    "aniso-zero-off-diagonal": (geo.ARRIVAL_TIME, "zero-off-diagonal"),
    "geodesic-constant": (geo.GEODESIC, "constant"),
    "aniso-constant-diagonal": (geo.ARRIVAL_TIME, "constant-diagonal"),
}


@pytest.mark.parametrize("interior", [True, False], ids=["interior", "closure"])
@pytest.mark.parametrize("case", list(_GRAPH_CASES))
@pytest.mark.parametrize("d,stencil", [(1, 2), (2, 8), (2, 16), (3, 26)])
def test_lattice_graph_matches_every_slot_oracle_bit_for_bit(d, stencil, case, interior):
    mode, planes = _GRAPH_CASES[case]
    grid, mats, passable = _graph_inputs(d, interior)
    m = mats[mode] if planes is None else _plane_case(grid, mats, planes)
    _, offsets = geo.stencil_offsets(d, stencil)
    data, strides = geo._lattice_graph(grid, offsets, mode, m, passable)
    want = lattice_graph_every_slot(grid, offsets, mode, m, passable)
    # the oracle's CSR rows hold one slot per offset, so its arrays reshape to (n, size)
    slots = (grid.node_count, len(offsets))
    assert np.array_equal(want.indptr, np.arange(0, want.data.size + 1, slots[1]))
    assert np.array_equal(data.view(np.uint64), want.data.reshape(slots).view(np.uint64))
    # every edge's head is its tail plus the slot's stride, in the oracle's index dtype
    assert strides.dtype == want.indices.dtype
    tails = np.broadcast_to(np.arange(grid.node_count)[:, None], slots)
    edge = np.isfinite(data)
    assert np.array_equal((tails + strides)[edge], want.indices.reshape(slots)[edge])
    if mode == geo.ARRIVAL_TIME and planes is None:
        # the inputs drop edges that M = I would keep
        eye = np.broadcast_to(np.eye(d), grid.shape + (d, d))
        kept = lattice_graph_every_slot(grid, offsets, mode, eye, passable)
        assert np.isinf(want.data).sum() > np.isinf(kept.data).sum()


def _search_inputs(d, mode, ball, seed, contrast, ties, walled, n_sources,
                   shape=None, blocked=0.2):
    """Graph inputs for the search oracle: rough or tied weights, walls, sources.

    With ``ties`` the speeds (and metric scales) are powers of two on a unit
    lattice, so many paths sum to exactly the same distance.  Otherwise they
    are log-uniform over ``contrast``.  A share ``blocked`` of the nodes is
    impassable, and ``walled`` adds a slab two nodes thick that cuts the grid
    in two, so nodes behind it are unreachable unless a source lies there.
    """
    rng = np.random.default_rng(seed)
    if shape is None:
        shape = {1: (int(rng.integers(8, 40)),),
                 2: tuple(int(m) for m in rng.integers(8, 16, size=2)),
                 3: tuple(int(m) for m in rng.integers(8, 11, size=3))}[d]
    upper = tuple(float(m - 1) for m in shape)
    center = tuple(0.5 * u for u in upper)
    dom = systems.BoxDomain((0.0,) * d, upper,
                       excluded_ball=(center, 0.3 * min(upper)) if ball else None)
    grid = closure_grid(dom, shape)
    if ties:
        scale = 2.0 ** rng.integers(-1, 3, size=shape)
    else:
        scale = 10.0 ** rng.uniform(0.0, math.log10(contrast), size=shape)
    passable = geo._passable_mask(grid) & (rng.random(shape) >= blocked)
    if walled:
        at = int(rng.integers(0, shape[0] - 1))
        passable[at:at + 2] = False
    A = np.eye(d) if ties else rng.normal(size=shape + (d, d))
    mats = scale[..., None, None] * (A @ np.swapaxes(A, -1, -2) + 0.2 * np.eye(d))
    if mode == geo.ARRIVAL_TIME:
        mats[~passable] = 0.0
    flat = rng.choice(grid.node_count, size=n_sources)
    sources = [tuple(int(i) for i in np.unravel_index(f, shape)) for f in flat]
    return grid, mats, passable, sources


def _search_and_dijkstra(grid, stencil, mode, mats, passable, sources):
    """The package's search and scipy's Dijkstra, the oracle, on one lattice graph."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import dijkstra

    _, offsets = geo.stencil_offsets(grid.d, stencil)
    data, strides = geo._lattice_graph(grid, offsets, mode, mats, passable)
    src = geo._normalize_sources(grid, sources)
    n, size = data.shape
    # the CSR heads from the strides, a +inf self-loop where a slot has no edge
    tails = np.arange(n)[:, None]
    indices = np.where(np.isfinite(data), tails + strides, tails)
    graph = csr_array((data.ravel(), indices.ravel(), np.arange(0, n * size + 1, size)),
                      shape=(n, n))
    want = dijkstra(graph, directed=True, indices=src, min_only=True)
    return geo._shortest_distances(data, strides, src), want, src


@pytest.mark.parametrize("mode", [geo.GEODESIC, geo.ARRIVAL_TIME], ids=["geodesic", "aniso"])
@pytest.mark.parametrize("d,stencil", [(1, 2), (2, 8), (2, 16), (3, 26)])
@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(ball=st.booleans(), seed=st.integers(0, 2**32 - 1),
       contrast=st.sampled_from([10.0, 1e3, 1e6]), ties=st.booleans(),
       walled=st.booleans(), n_sources=st.integers(1, 4))
def test_shortest_distances_match_scipy_dijkstra_bit_for_bit(
        d, stencil, mode, ball, seed, contrast, ties, walled, n_sources):
    # every distance has Dijkstra's bits, +inf on the unreached nodes and 0
    # on every source, passable or not
    grid, mats, passable, sources = _search_inputs(
        d, mode, ball, seed, contrast, ties, walled, n_sources)
    got, want, src = _search_and_dijkstra(grid, stencil, mode, mats, passable, sources)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.all(got[src] == 0.0)


@pytest.mark.parametrize("shape,n_sources", [
    ((6000,), 1), ((6000,), 3), ((60, 70), 1), ((20, 22, 19), 1),
], ids=["line", "line-3-sources", "2d", "3d"])
@pytest.mark.parametrize("mode", [geo.GEODESIC, geo.ARRIVAL_TIME], ids=["geodesic", "aniso"])
@pytest.mark.parametrize("ties", [False, True], ids=["rough", "ties"])
def test_long_rays_match_scipy_dijkstra_bit_for_bit(shape, n_sources, mode, ties):
    # fronts of at most two nodes per source follow each slot on for many
    # edges: along a line, and in the first and last rounds of a grid, where
    # rays leave the grid or wrap to the next row across a +inf slot
    d = len(shape)
    for seed, walled in ((3, False), (4, True)):
        grid, mats, passable, sources = _search_inputs(
            d, mode, False, seed, 1e3, ties, walled, n_sources, shape, blocked=0.0)
        got, want, _ = _search_and_dijkstra(grid, None, mode, mats, passable, sources)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert walled or np.isfinite(got).all()


# -- divergence grading -----------------------------------------------------

def test_ray_constant_speed_unbounded():
    v = geo.ray_completeness(lambda t: 1.0, 0.0, math.inf)
    assert v.classification == "certified-divergent"
    assert v.criterion == "ray-quadrature"
    assert len(v.cutoffs) == 24


def test_ray_quadratic_speed_converges():
    v = geo.ray_completeness(lambda t: t**2, 1.0, math.inf)
    assert v.classification == "likely-convergent"
    assert v.parameters["limit_estimate"] == pytest.approx(1.0, rel=1e-3)


def test_ray_vanishing_speed_at_boundary():
    v = geo.ray_completeness(lambda t: 1.0 - t, 0.0, 1.0)
    assert v.classification == "certified-divergent"


@pytest.mark.parametrize("p,expected", [
    (0.5, "likely-convergent"),
    (0.9, "likely-convergent"),
    (1.0, "certified-divergent"),
    (1.5, "certified-divergent"),
    (2.0, "certified-divergent"),
])
def test_ray_power_family(p, expected):
    v = geo.ray_completeness(lambda t: (1.0 - t) ** p, 0.0, 1.0)
    assert v.classification == expected, v.parameters


def test_ray_scaling_invariance():
    for p in [1.0, 0.5, 2.0]:
        base = geo.ray_completeness(lambda t: (1.0 - t) ** p, 0.0, 1.0)
        scaled = geo.ray_completeness(lambda t: 7.3 * (1.0 - t) ** p, 0.0, 1.0)
        assert base.classification == scaled.classification


def test_ray_partial_integrals_monotone():
    v = geo.ray_completeness(lambda t: 1.0 + t**2, 0.0, math.inf)
    vals = v.integrals
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_ray_rejects_nonpositive_speed():
    with pytest.raises(DomainEvalError, match="positive"):
        geo.ray_completeness(lambda t: 0.5 - t, 0.0, 1.0)


def test_ray_cutoffs_stay_below_t_end():
    # 1 - 2**-53 is the last double below 1: the 54th cutoff rounds onto t_end
    assert geo.ray_cutoff(0.0, 1.0, 53) == 1.0 - 2.0**-53
    v = geo.ray_completeness(lambda t: 1.0 - t, 0.0, 1.0, n_cutoffs=53)
    assert v.classification in geo.VERDICT_GRADES
    assert v.parameters["n_cutoffs"] == 53
    with pytest.raises(ValidationError, match="^54 cutoffs put the last one on t_end = 1$"):
        geo.ray_completeness(lambda t: 1.0 - t, 0.0, 1.0, n_cutoffs=54)


def test_ray_accepts_callable():
    v = geo.ray_completeness(lambda t: 1.0 + t, 0.0, math.inf)
    assert v.classification == "certified-divergent"  # integral grows like log


def test_ray_inverse_linear_tail_is_certified():
    # 1/x integrates to log: constant increments on doubling cutoffs
    v = geo.ray_completeness(lambda t: t, 1.0, math.inf)
    assert v.classification == "certified-divergent"
    assert abs(v.parameters["tail_exponent"]) <= geo.POWER_FIT_TOL


@pytest.mark.parametrize("increments, total, grade, extras", [
    ([1.0, 0.5], 1.5, "inconclusive", {"diagnostic": "fewer than 3 increments"}),
    ([0.0, 0.0, 0.0, 0.0], 1.0, "likely-convergent", {"limit_estimate": 1.0}),
    ([1.0, 0.5, -0.1, 0.3], 1.7, "inconclusive",
     {"diagnostic": "stalled or non-positive increments"}),
    ([1.0, 2.0, 3.0, 5.0, 8.0], 19.0, "likely-divergent", None),
    ([1.0, 0.4, 0.1, 0.04], 2.0, "likely-convergent",
     {"limit_estimate": 2.0 + 0.04 * 0.4 / 0.6}),
    ([1.0, 0.95, 0.99, 0.92], 3.86, "likely-divergent", None),
    ([1.0, 0.7, 0.8, 0.6], 3.1, "inconclusive", None),
], ids=["too-few", "all-zero", "non-positive", "growing", "geometric-convergent",
        "geometric-divergent", "unsettled"])
def test_classify_increments_rules(increments, total, grade, extras):
    # one sequence per rule besides the stable exponent; a sequence that
    # reaches the exponent fit reports it, with a spread too wide to use
    got, params = geo._classify_increments(increments, total)
    assert got == grade
    measured = {"tail_exponent", "exponent_spread"} & set(params)
    if measured:
        assert params["exponent_spread"] > geo.POWER_FIT_TOL
    extras = extras or {}
    assert set(params) == set(extras) | measured
    for key, value in extras.items():
        assert params[key] == pytest.approx(value, rel=1e-15)


def test_ray_quadrature_trouble_is_inconclusive():
    def wild(t):
        return abs(np.sin(1.0 / (1.0000001 - t))) + 1e-12

    v = geo.ray_completeness(wild, 0.0, 1.0)
    assert v.classification == "inconclusive"
    assert "diagnostic" in v.parameters


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_ray_speed_is_evaluated_in_batches(p):
    seen = []

    def speed(t):
        seen.append(t)
        return (1.0 - t) ** p

    geo.ray_completeness(speed, 0.0, 1.0)
    assert all(isinstance(t, np.ndarray) for t in seen)
    assert 0 < len(seen) <= 20


def _batched_integrand(kind, c, kink):
    """A family of integrands on [0, 1], one output per entry of c: nodes (n, 1) -> (n, m)."""
    c = np.asarray(c)
    if kind == "smooth":
        return lambda u: np.exp(c * u) * np.cos(40.0 * c * u)
    if kind == "kinked":
        return lambda u: np.abs(u - kink) ** c + c
    return lambda u: (1.0 - u) ** -c  # halvings may reach u = 1 exactly


@pytest.mark.parametrize("kind", ["smooth", "kinked", "singular"])
@pytest.mark.parametrize("budget", [1, 3, geo.RAY_MAX_SUBDIVISIONS])
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(c=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=24),
       kink=st.sampled_from([0.5, 0.25]) | st.floats(0.0, 1.0))
def test_gk21_loop_matches_cubature_bit_for_bit(kind, budget, c, kink):
    # scipy's cubature with its "gk21" rule is the oracle: same estimates,
    # errors and halvings, including exact error ties (a kink at 1/2 or 1/4)
    # and budgets that run out
    f = _batched_integrand(kind, c, kink)
    with np.errstate(divide="ignore", invalid="ignore"):
        want = cubature(f, [0.0], [1.0], rtol=geo.RAY_RTOL, max_subdivisions=budget)
        est, err, subdivisions = geo._gk21_adaptive(f, geo.RAY_RTOL, budget)
    assert subdivisions == want.subdivisions
    assert np.array_equal(est, want.estimate, equal_nan=True)
    assert np.array_equal(err, want.error, equal_nan=True)


def test_verdict_json_round_trip():
    v = geo.ray_completeness(lambda t: 1.0, 0.0, math.inf)
    blob = json.dumps(v.to_json())
    back = json.loads(blob)
    assert back["classification"] == "certified-divergent"
    assert back["parameters"]["t_end"] == "inf"
    assert len(back["cutoffs"]) == len(back["integrals"])


def test_power_law_classify():
    assert geo.power_law_classify(1.0) == "divergent"
    assert geo.power_law_classify(2.0) == "divergent"
    assert geo.power_law_classify(0.999) == "convergent"
    assert geo.power_law_classify(0.5) == "convergent"


def test_combine_classifications():
    assert geo.combine_classifications(["certified-divergent"]) == "certified-divergent"
    assert (
        geo.combine_classifications(["certified-divergent", "likely-divergent"])
        == "likely-divergent"
    )
    assert (
        geo.combine_classifications(["certified-divergent", "likely-convergent"])
        == "likely-convergent"
    )
    assert (
        geo.combine_classifications(["inconclusive", "likely-divergent"])
        == "inconclusive"
    )


# -- boundary probe ---------------------------------------------------------

def test_boundary_probe_divergent_speed():
    # speed c(x) = x(1-x) vanishes linearly: metric distance to the ends
    # grows like log(1/margin), which the probe must certify as divergent
    n = 2**19 - 1
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (n,))
    x = grid.axes[0]
    c = x * (1.0 - x)
    G = (1.0 / (2.0 * c**2)).reshape(-1, 1, 1)
    metric = geo.MetricField(grid, G)
    margins = [2.0**-k for k in range(8, 15)]
    pairs, verdict = geo.boundary_distance_probe(metric, [0.5], margins)
    dists = [d for _, d in pairs]
    assert all(b >= a for a, b in zip(dists, dists[1:]))
    assert verdict.classification == "certified-divergent", verdict.parameters


def test_boundary_probe_constant_speed_converges():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (2**12 - 1,))
    G = np.full((grid.shape[0], 1, 1), 0.5)  # majorant 2, speed sqrt(2)
    metric = geo.MetricField(grid, G)
    margins = [2.0**-k for k in range(2, 9)]
    pairs, verdict = geo.boundary_distance_probe(metric, [0.5], margins)
    assert verdict.classification == "likely-convergent"
    assert verdict.parameters["limit_estimate"] == pytest.approx(
        0.5 / math.sqrt(2.0), rel=1e-3
    )


def test_boundary_probe_excluded_ball_converges():
    dom = systems.BoxDomain(
        (-2.0,) * 3,
        (2.0,) * 3,
        unbounded_lower=(True,) * 3,
        unbounded_upper=(True,) * 3,
        excluded_ball=((0.0, 0.0, 0.0), 0.1),
    )
    grid = grids.Grid(dom, (64, 64, 64))
    G = np.broadcast_to(0.25 * np.eye(3), grid.shape + (3, 3)).copy()
    metric = geo.MetricField(grid, G)
    margins = [0.8, 0.4, 0.2, 0.1, 0.05, 0.025]
    pairs, verdict = geo.boundary_distance_probe(metric, [1.0, 0.0, 0.0], margins)
    assert verdict.classification == "likely-convergent", verdict.parameters
    assert pairs[-1][1] < math.inf


def test_boundary_probe_rejects_unbounded_domain():
    dom = systems.BoxDomain(
        (-1.0,), (1.0,), unbounded_lower=(True,), unbounded_upper=(True,)
    )
    grid = grids.Grid(dom, (16,))
    metric = geo.MetricField(grid, np.ones((16, 1, 1)))
    with pytest.raises(UnsupportedSystemError, match="no finite boundary"):
        geo.boundary_distance_probe(metric, [0.0], [0.5, 0.25])


def test_boundary_probe_margin_too_large():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (64,))
    metric = geo.MetricField(grid, np.ones((64, 1, 1)))
    with pytest.raises(ValueError, match="deepest interior"):
        geo.boundary_distance_probe(metric, [0.5], [0.7, 0.3])


def test_boundary_probe_rejects_nondecreasing_margins():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (64,))
    metric = geo.MetricField(grid, np.ones((64, 1, 1)))
    with pytest.raises(ValueError, match="strictly decreasing"):
        geo.boundary_distance_probe(metric, [0.5], [0.2, 0.2])


def test_boundary_probe_rejects_exterior_probe():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (64,))
    metric = geo.MetricField(grid, np.ones((64, 1, 1)))
    with pytest.raises(ValueError, match="inside"):
        geo.boundary_distance_probe(metric, [1.5], [0.2, 0.1])


def _line_metric():
    grid = grids.Grid(systems.BoxDomain((0.0,), (1.0,)), (64,))
    return geo.MetricField(grid, np.ones((64, 1, 1)))


@pytest.mark.parametrize("call, message", [
    (lambda: geo.stencil_offsets(3, 16), r"stencil 16 not available in 3-D; choose from \(26,\)"),
    (lambda: geo.boundary_distance_probe(_line_metric(), [1.5], [0.2, 0.1]),
     r"probe point \[1.5\] must lie inside the domain"),
    (lambda: geo.boundary_distance_probe(_line_metric(), [0.5], [0.2]),
     "margins must be a 1-D sequence with at least 2 entries"),
    (lambda: geo.boundary_distance_probe(_line_metric(), [0.5], [[0.2, 0.1]]),
     "margins must be a 1-D sequence with at least 2 entries"),
    (lambda: geo.boundary_distance_probe(_line_metric(), [0.5], [0.2, -0.1]),
     "margins must be positive and strictly decreasing"),
    (lambda: geo.boundary_distance_probe(_line_metric(), [0.5], [0.2, 0.2]),
     "margins must be positive and strictly decreasing"),
    (lambda: geo.boundary_distance_probe(_line_metric(), [0.5], [0.7, 0.3]),
     r"margin 0.7 reaches the deepest interior node \(0.492308 from the boundary\); "
     "start below that"),
    (lambda: geo.ray_completeness(lambda t: 1.0, 1.0, 1.0), r"need t0 < t_end, got \[1.0, 1.0\]"),
    (lambda: geo.ray_completeness(lambda t: 1.0, 0.0, 1.0, n_cutoffs=3),
     "need at least 4 cutoffs"),
    (lambda: geo.ray_completeness(lambda t: 1.0 - t, 0.0, 1.0, n_cutoffs=56),
     "56 cutoffs put the last one on t_end = 1"),
    (lambda: geo.ray_completeness(lambda t: 1.0, 1.0, math.inf, n_cutoffs=1100),
     "1100 cutoffs put the last one on t_end = inf"),
], ids=["stencil", "probe-outside", "one-margin", "margins-2-d", "margin-negative",
        "margins-not-decreasing", "margin-too-deep", "ray-interval", "ray-cutoffs",
        "ray-cutoff-on-end", "ray-cutoff-past-float-range"])
def test_bad_arguments_raise_validation_error(call, message):
    # argument errors are the package's own class, with their messages kept;
    # inside a CLI command they still exit 3 like any other ValueError
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


def test_margin_without_nodes_stays_a_numerical_error():
    # a margin band between lattice nodes is a property of the grid, not a bad argument
    with pytest.raises(ValueError, match="captures no grid nodes") as info:
        geo.boundary_distance_probe(_line_metric(), [0.5], [0.2, 0.001])
    assert not isinstance(info.value, ValidationError)


def test_lattice_graph_peak_stays_near_its_weight_array():
    # The 32^3 26-neighbour geodesic graph of a diagonal metric, as in the
    # punctured Dirac demo.  Its weights take 6.8 MB.  Beyond them the build
    # holds the three live entry planes, two float and two bool node
    # buffers (1.38 MB) and numpy's own small buffers: 1.51 MB measured
    # with tracemalloc.  A head index per slot (int32, 3.4 MB) or one more
    # pair of full-size temporaries per metric term (0.5 MB) breaks the margin.
    dom = systems.BoxDomain((-2.0,) * 3, (2.0,) * 3, excluded_ball=((0.0,) * 3, 0.15))
    grid = grids.Grid(dom, (32, 32, 32))
    G = geo.MetricField(grid, np.broadcast_to(0.227 * np.eye(3), grid.shape + (3, 3)).copy())
    _, offsets = geo.stencil_offsets(3, 26)
    passable = geo._passable_mask(grid)
    geo._lattice_graph(grid, offsets, geo.GEODESIC, G.G_samples, passable)
    tracemalloc.start()
    try:
        data, _ = geo._lattice_graph(grid, offsets, geo.GEODESIC, G.G_samples, passable)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    margin = 1_750_000
    assert peak < data.nbytes + margin, peak - data.nbytes


# -- a constant field as one matrix -----------------------------------------
# A field whose coefficients read no coordinate is held as one matrix,
# (1,)*d + (d, d); every layer below must give the bits of the same field
# passed as a full stack, grid.shape + (d, d).

def _skew_custom_system():
    # a constant non-diagonal weight and coefficients with Tr(B^1 B^2) != 0:
    # the velocity matrix, the majorant and the metric are not diagonal
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    return systems.CoefficientSystem(
        domain=dom, k=2,
        E=systems.ExprMatrixField([["2", "0.5"], ["0.5", "1"]]),
        A=(systems.ConstMatrixField(np.array([[1.0, 0.0], [0.0, -1.0]])),
           systems.ConstMatrixField(np.array([[1.0, 1.0], [1.0, -1.0]]))),
        V=systems.ConstMatrixField(np.zeros((2, 2))),
    )


_CONSTANT_CASES = {
    "dirac-32": lambda: (systems.dirac_free(radius=0.15), (32, 32, 32)),
    "maxwell-2d": lambda: (systems.maxwell_isotropic(
        "1", "1", domain=systems.BoxDomain((0.0, 0.0), (1.0, 1.0))), (24, 20)),
    "telegraph-1d": lambda: (systems.telegraph("1", "1"), (64,)),
    "custom-skew": lambda: (_skew_custom_system(), (20, 24)),
}


def _same_bits(one, full):
    assert np.array_equal(np.broadcast_to(one, full.shape).view(np.uint64), full.view(np.uint64))


@pytest.mark.parametrize("case", sorted(_CONSTANT_CASES))
def test_constant_field_has_the_bits_of_its_full_stack(case, tmp_path):
    sysm, shape = _CONSTANT_CASES[case]()
    grid = grids.Grid(sysm.domain, shape)
    d = grid.d
    one = vel.VelocityField.from_system(sysm, grid)
    assert one.M_samples.shape == (1,) * d + (d, d)
    full = vel.VelocityField(grid, np.broadcast_to(one.M_samples, grid.shape + (d, d)).copy())
    if case == "custom-skew":
        assert one.M_samples[(0,) * d + (0, 1)] != 0.0
    for attr in ("lam_max", "M_norms"):
        _same_bits(getattr(one, attr), getattr(full, attr))
    maj_one, maj_full = vel.majorant(one, 0.1), vel.majorant(full, 0.1)
    assert maj_one.majorant_samples.shape == one.M_samples.shape
    assert maj_one.delta == maj_full.delta
    _same_bits(maj_one.majorant_samples, maj_full.majorant_samples)
    _same_bits(maj_one.majorant_norms, maj_full.majorant_norms)
    metric_one, metric_full = geo.metric_from_velocity(maj_one), geo.metric_from_velocity(maj_full)
    assert metric_one.G_samples.shape == one.M_samples.shape
    assert metric_one.degenerate == metric_full.degenerate
    _same_bits(metric_one.G_samples, metric_full.G_samples)
    _, offsets = geo.stencil_offsets(d)
    passable = geo._passable_mask(grid)
    for mode, mats_one, mats_full in ((geo.GEODESIC, metric_one.G_samples, metric_full.G_samples),
                                      (geo.ARRIVAL_TIME, one.M_samples, full.M_samples)):
        data, strides = geo._lattice_graph(grid, offsets, mode, mats_one, passable)
        want, want_strides = geo._lattice_graph(grid, offsets, mode, mats_full, passable)
        _same_bits(data, want)
        assert np.array_equal(strides, want_strides)
    src = [tuple(n // 4 for n in grid.shape)]
    for dist_one, dist_full in (
            (geo.lattice_geodesic(metric_one, src), geo.lattice_geodesic(metric_full, src)),
            (geo.eikonal_arrival(grid, one, src), geo.eikonal_arrival(grid, full, src))):
        assert np.isfinite(dist_one.values).any()
        _same_bits(dist_one.values, dist_full.values)
    vel.to_csv(one, tmp_path / "one.csv")
    vel.to_csv(full, tmp_path / "full.csv")
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()


def _one_and_full(grid, matrix):
    d = grid.d
    return matrix.reshape((1,) * d + (d, d)), np.broadcast_to(matrix, grid.shape + (d, d)).copy()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("build, bad", [
    (lambda grid, m: vel.VelocityField(grid, m), "nan"),
    (lambda grid, m: vel.VelocityField(grid, m), "indefinite"),
    (lambda grid, m: vel.VelocityField(grid, np.zeros_like(m), majorant_samples=m), "nan"),
    (lambda grid, m: vel.VelocityField(grid, np.eye(grid.d)[(None,) * grid.d],
                                       majorant_samples=m), "indefinite"),
    (lambda grid, m: geo.MetricField(grid, m), "nan"),
    (lambda grid, m: geo.MetricField(grid, m), "indefinite"),
], ids=["M-nan", "M-indefinite", "majorant-nan", "majorant-short", "metric-nan",
        "metric-indefinite"])
def test_constant_bad_samples_raise_the_messages_of_their_full_stacks(d, build, bad):
    grid = grids.Grid(systems.BoxDomain((0.0,) * d, (1.0,) * d), (8, 9, 10)[:d])
    m = np.eye(d)
    m[-1, -1] = np.nan if bad == "nan" else -1.0
    messages = []
    for samples in _one_and_full(grid, m):
        with pytest.raises(ValidationError) as info:
            build(grid, samples)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    # a node named is the grid's first, the first bad node of the full stack
    assert "node" not in messages[0] or f"node {(0,) * d}:" in messages[0] + ":"


@pytest.mark.parametrize("build", [
    lambda grid, m: vel.VelocityField(grid, m),
    lambda grid, m: vel.VelocityField(grid, np.broadcast_to(np.eye(2), grid.shape + (2, 2)),
                                      majorant_samples=m),
    lambda grid, m: geo.MetricField(grid, m),
], ids=["M", "majorant", "metric"])
@pytest.mark.parametrize("shape", [(16, 1, 2, 2), (1, 17, 2, 2), (2, 2), (1, 2, 2),
                                   (1, 1, 1, 2, 2), (1, 1, 3, 3), (16, 17, 3, 3)])
def test_field_shapes_other_than_full_or_one_matrix_raise(build, shape):
    grid = grids.Grid(systems.BoxDomain((0.0, 0.0), (1.0, 1.0)), (16, 17))
    with pytest.raises(ValidationError, match="shape"):
        build(grid, np.broadcast_to(np.eye(shape[-1]), shape).copy())


def test_constant_field_majorant_and_metric_stay_below_one_matrix_stack():
    # one 3x3 float64 matrix per node of the 32^3 Dirac grid is 2.36 MB; the
    # velocity field, its majorant and its metric are each one matrix
    sysm = systems.dirac_free(radius=0.15)
    grid = grids.Grid(sysm.domain, (32, 32, 32))
    stack = 32**3 * 3 * 3 * 8

    def build():
        return geo.metric_from_velocity(vel.majorant(vel.VelocityField.from_system(sysm, grid), 0.1))

    build()
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < stack, peak
