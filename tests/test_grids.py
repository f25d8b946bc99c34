import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemetric import BoxDomain, Grid
from wavemetric.grids import CSV_CHUNK_ROWS, write_csv


def test_interior_grid_excludes_endpoints():
    g = Grid(BoxDomain((0.0,), (1.0,)), (9,))
    ax = g.axes[0]
    assert ax[0] > 0.0 and ax[-1] < 1.0
    assert ax[0] == pytest.approx(0.1)
    assert g.spacing[0] == pytest.approx(0.1)


def test_closure_grid_hits_endpoints():
    g = Grid(BoxDomain((0.0, -1.0), (2.0, 1.0)), (11, 21), interior=False)
    assert g.axes[0][0] == 0.0 and g.axes[0][-1] == 2.0
    assert g.axes[1][0] == -1.0 and g.axes[1][-1] == 1.0
    assert g.spacing[0] == pytest.approx(0.2)
    assert g.spacing[1] == pytest.approx(0.1)


def test_minimum_node_count():
    with pytest.raises(ValueError, match="at least 8"):
        Grid(BoxDomain((0.0,), (1.0,)), (7,))


def test_shape_rank_must_match_domain():
    with pytest.raises(ValueError):
        Grid(BoxDomain((0.0, 0.0), (1.0, 1.0)), (16,))


def test_unbounded_window_must_be_finite():
    dom = BoxDomain((0.0,), (np.inf,), unbounded_upper=(True,))
    with pytest.raises(ValueError, match="finite sampling window"):
        Grid(dom, (16,))


def test_unbounded_with_finite_window_is_fine():
    dom = BoxDomain((-2.0,), (2.0,), unbounded_lower=(True,), unbounded_upper=(True,))
    g = Grid(dom, (16,))
    assert g.node_count == 16


def test_coords_shape_and_values():
    g = Grid(BoxDomain((0.0, 0.0), (1.0, 2.0)), (8, 16))
    c = g.coords()
    assert c.shape == (8, 16, 2)
    assert np.allclose(c[3, 5], [g.axes[0][3], g.axes[1][5]])


def test_nearest_node_round_trip():
    g = Grid(BoxDomain((0.0,), (1.0,)), (64,))
    rng = np.random.default_rng(3)
    for _ in range(50):
        idx = (int(rng.integers(0, 64)),)
        assert g.nearest_node(g.node_coords(idx)) == idx


def test_nearest_node_clips_outside_points():
    g = Grid(BoxDomain((0.0,), (1.0,)), (16,))
    assert g.nearest_node(np.array([-5.0])) == (0,)
    assert g.nearest_node(np.array([5.0])) == (15,)


def test_trapezoid_weights_integrate_linear_exactly():
    # on the closure grid the rule is exact for affine integrands
    g = Grid(BoxDomain((0.0,), (2.0,)), (33,), interior=False)
    w = g.trapezoid_weights()
    f = 3.0 * g.axes[0] + 1.0
    assert np.sum(w * f) == pytest.approx(8.0, rel=1e-14)


def test_trapezoid_weights_interior_value():
    # interior nodes shrink the covered interval to n-1 of n+1 cells
    n = 99
    g = Grid(BoxDomain((0.0,), (1.0,)), (n,))
    w = g.trapezoid_weights()
    total = np.sum(w * np.ones(n))
    assert total == pytest.approx((n - 1) / (n + 1), rel=1e-14)


def test_trapezoid_weights_2d_product():
    g = Grid(BoxDomain((0.0, 0.0), (1.0, 1.0)), (16, 16), interior=False)
    w = g.trapezoid_weights()
    assert w.shape == (16, 16)
    assert np.sum(w) == pytest.approx(1.0, rel=1e-13)


# -- CSV output --------------------------------------------------------------

def _integer_grid(d: int) -> Grid:
    """8 interior nodes per axis at the coordinates 1, 2, ..., 8."""
    return Grid(BoxDomain((0.0,) * d, (9.0,) * d), (8,) * d)


def test_velocity_csv_bytes(tmp_path):
    from wavemetric import velocity as vel

    grid = _integer_grid(2)
    M = np.zeros((8, 8, 2, 2))
    M[..., 0, 0] = 10.0 + np.arange(8)[:, None]
    M[..., 1, 1] = 20.0 + np.arange(8)[None, :]
    M[..., 0, 1] = M[..., 1, 0] = -0.0
    M[0, 0, 0, 1] = M[0, 0, 1, 0] = 0.1
    M[7, 7, 1, 1] = 0.1 + 0.2
    path = tmp_path / "velocity.csv"
    vel.to_csv(vel.VelocityField(grid, M), path)
    rows = ["x1,x2,M11,M12,M22"]
    for i in range(8):
        for j in range(8):
            m12 = "0.10000000000000001" if (i, j) == (0, 0) else "-0"
            m22 = "0.30000000000000004" if (i, j) == (7, 7) else str(20 + j)
            rows.append(f"{i + 1},{j + 1},{10 + i},{m12},{m22}")
    assert path.read_bytes() == ("\r\n".join(rows) + "\r\n").encode()


def test_distance_csv_bytes(tmp_path):
    from wavemetric.geometry import DistanceField

    grid = _integer_grid(2)
    values = np.arange(64.0).reshape(8, 8)
    values[0, 1] = 0.1
    values[1, 0] = -0.0
    values[3, 4] = 2.5e-7
    values[7, 7] = np.inf
    path = tmp_path / "distance.csv"
    DistanceField(grid, values).to_csv(path)
    special = {(0, 1): "0.10000000000000001", (1, 0): "-0",
               (3, 4): "2.4999999999999999e-07", (7, 7): "inf"}
    rows = ["x1,x2,value"]
    for i in range(8):
        for j in range(8):
            rows.append(f"{i + 1},{j + 1},{special.get((i, j), 8 * i + j)}")
    assert path.read_bytes() == ("\r\n".join(rows) + "\r\n").encode()

    path_1d = tmp_path / "distance_1d.csv"
    DistanceField(_integer_grid(1), [0.0, 0.1, 1.0, 2.0, 3.0, 4.0, 5.0, np.inf]
                  ).to_csv(path_1d)
    assert path_1d.read_bytes() == (
        b"x1,value\r\n1,0\r\n2,0.10000000000000001\r\n3,1\r\n4,2\r\n5,3\r\n"
        b"6,4\r\n7,5\r\n8,inf\r\n"
    )


def test_wave_state_csv_bytes(tmp_path):
    from wavemetric.evolve import WaveState

    values = np.zeros((8, 2), dtype=np.complex128)
    values.real[:, 0] = np.arange(1.0, 9.0)
    values.imag[0, 0] = 0.1
    values.real[:, 1] = -0.0
    values.imag[:, 1] = -0.25 * np.arange(1.0, 9.0)
    path = tmp_path / "state.csv"
    WaveState(_integer_grid(1), values).to_csv(path)
    assert path.read_bytes() == (
        b"x1,re_1,im_1,re_2,im_2\r\n"
        b"1,1,0.10000000000000001,-0,-0.25\r\n"
        b"2,2,0,-0,-0.5\r\n"
        b"3,3,0,-0,-0.75\r\n"
        b"4,4,0,-0,-1\r\n"
        b"5,5,0,-0,-1.25\r\n"
        b"6,6,0,-0,-1.5\r\n"
        b"7,7,0,-0,-1.75\r\n"
        b"8,8,0,-0,-2\r\n"
    )


def test_evolution_log_csv_bytes(tmp_path):
    import math

    from wavemetric.evolve import EvolutionLog

    log = EvolutionLog(d=2, dt=0.1, steps=2, method="rk4", order=2,
                       sampled_every=1, support_threshold=1e-3, ref_density=1.0)
    log.append(0.0, 1.0, [(2.0, 7.0), (3.0, 6.0)], 1.0, 0.5)
    log.append(0.1, 0.1 + 0.2, [(-0.0, 8.0), (1.0, 8.0)], 0.25, 1e-3)
    log.append(0.2, 1.0, None, math.nan, 0.0)
    path = tmp_path / "evolution.csv"
    log.to_csv(path)
    assert path.read_bytes() == (
        b"t,energy,supp_lo_1,supp_hi_1,supp_lo_2,supp_hi_2,boundary_margin,max_abs\r\n"
        b"0,1,2,7,3,6,1,0.5\r\n"
        b"0.10000000000000001,0.30000000000000004,-0,8,1,8,0.25,0.001\r\n"
        b"0.20000000000000001,1,nan,nan,nan,nan,nan,0\r\n"
    )


def _csv_oracle(names, table) -> bytes:
    """What ``write_csv`` promises: csv.writer rows of f"{v:.17g}" strings."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(names)
    writer.writerows([f"{v:.17g}" for v in row] for row in table)
    return buf.getvalue().encode()


_CSV_SPECIALS = [np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 0.0, -0.0,
                 5e-324, -2.5e-310, 2.2250738585072014e-308, 0.1, 1e16, -1.7976931348623157e308,
                 *np.array([0x7FF0000000000001, 0xFFF8000000000042], dtype=np.uint64).view(np.float64)]


@st.composite
def csv_tables(draw):
    """A table of 1 to 14 columns and 0, 1 or about a chunk boundary's rows.

    The cells repeat a small drawn pool of values (specials such as -0 beside
    0, subnormals, any float) or are random bit patterns, NaN payloads included.
    Each column may then be reshaped: made constant, constant in one chunk
    only, filled with 0 and -0, or filled with one- and two-character
    integers beside the other columns' long cells.
    """
    rows = draw(st.sampled_from([0, 1, 2, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                 CSV_CHUNK_ROWS + 1, 2 * CSV_CHUNK_ROWS + 3]))
    cols = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        table = rng.integers(0, 2**64, (rows, cols), dtype=np.uint64).view(np.float64)
    else:
        n = len(_CSV_SPECIALS)
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        pool = np.array([v for v, k in zip(_CSV_SPECIALS, keep) if k]
                        + draw(st.lists(st.floats(), min_size=1, max_size=8)))
        table = pool[rng.integers(0, len(pool), (rows, cols))]
    shapes = draw(st.lists(st.sampled_from(["keep", "constant", "chunk-constant", "signed-zeros",
                                            "short"]), min_size=cols, max_size=cols))
    for j, shape in enumerate(shapes):
        if shape == "constant" and rows:
            table[:, j] = table[0, j]
        elif shape == "chunk-constant" and rows:
            start = CSV_CHUNK_ROWS * int(rng.integers(0, (rows - 1) // CSV_CHUNK_ROWS + 1))
            table[start:start + CSV_CHUNK_ROWS, j] = table[start, j]
        elif shape == "signed-zeros":
            table[:, j] = rng.choice([0.0, -0.0], rows)
        elif shape == "short":
            table[:, j] = rng.integers(-9, 100, rows)
    return table


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(csv_tables())
def test_write_csv_matches_csv_writer(tmp_path_factory, table):
    names = [f"c{j}" for j in range(table.shape[1])]
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, names, table)
    assert path.read_bytes() == _csv_oracle(names, table)


def test_write_csv_memory_is_bounded_by_the_chunk(tmp_path):
    # all-distinct values, the widest strings; the table spans 25 chunks
    table = np.random.default_rng(0).standard_normal((100_000, 9))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "table.csv", [f"c{j}" for j in range(9)], table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * CSV_CHUNK_ROWS * 9
