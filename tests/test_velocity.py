import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemetric import evolve as ev
from wavemetric import grids, systems, verify
from wavemetric import velocity as vel
from wavemetric.errors import (
    MajorantError,
    MatrixError,
    UnsupportedSystemError,
    ValidationError,
)
from wavemetric.matkernel import op_norm
from wavemetric.sampling import unit_directions

from metric_oracle import mollify_every_plane
from velocity_oracle import canonical_stacks, stack_traces, velocity_matrix_structured


UNIT_BOX_3 = systems.BoxDomain((0.0,) * 3, (1.0,) * 3)
MID3 = np.array([0.5, 0.5, 0.5])

FREE_LINE = systems.BoxDomain((-10.0,), (10.0,), unbounded_lower=(True,), unbounded_upper=(True,))


def coupling_system(entry, domain=FREE_LINE):
    """Canonical 2-component system with A^1 = entry(x) * offdiagonal."""
    return systems.CoefficientSystem(
        domain=domain,
        k=2,
        E=systems.ConstMatrixField(np.eye(2)),
        A=(systems.ExprMatrixField([[0.0, entry], [entry, 0.0]]),),
        V=systems.ConstMatrixField(np.zeros((2, 2))),
    )


# -- velocity matrix values -------------------------------------------------

def test_telegraph_scalar_value():
    sysm = systems.telegraph(L="exp(2*x)", C="1", domain=systems.BoxDomain((0.0,), (2.0,)))
    M = vel.velocity_matrix(sysm, [0.7])
    assert M.shape == (1, 1)
    assert M[0, 0] == pytest.approx(2.0 * math.exp(-1.4), rel=1e-12)


def test_maxwell_isotropic_value():
    sysm = systems.maxwell_isotropic(eps="2", mu="0.5", domain=UNIT_BOX_3)
    M = vel.velocity_matrix(sysm, MID3)
    assert np.allclose(M, 4.0 * np.eye(3), atol=1e-10)


def test_maxwell_anisotropic_value():
    sysm = systems.maxwell_anisotropic(
        eps=[[1, 0, 0], [0, 2, 0], [0, 0, 3]],
        mu=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        domain=UNIT_BOX_3,
    )
    M = vel.velocity_matrix(sysm, MID3)
    assert np.allclose(M, np.diag([5.0 / 3.0, 8.0 / 3.0, 3.0]), atol=1e-10)


def test_elastic_isotropic_value():
    sysm = systems.elastic_isotropic(rho="1", K="1", mu="0.3", domain=UNIT_BOX_3)
    M = vel.velocity_matrix(sysm, MID3)
    assert np.allclose(M, 4.0 * np.eye(3), atol=1e-9)


def test_dirac_value():
    M = vel.velocity_matrix(systems.dirac_free(), [1.0, 0.0, 0.0])
    assert np.allclose(M, 4.0 * np.eye(3), atol=1e-12)


def test_structured_matches_generic():
    cases = [
        (systems.telegraph(L="1 + 0.5*x", C="2"), [0.3]),
        (systems.maxwell_isotropic(eps="1 + x^2", mu="1", domain=UNIT_BOX_3), MID3),
        (
            systems.maxwell_anisotropic(
                eps=[["1 + x", 0, 0], [0, 2, "0.1"], [0, "0.1", 3]],
                mu=[[1, 0, 0], [0, "1 + y", 0], [0, 0, 1]],
                domain=UNIT_BOX_3,
            ),
            [0.2, 0.7, 0.4],
        ),
        (systems.elastic_isotropic(rho="2", K="1 + z", mu="0.4", domain=UNIT_BOX_3), MID3),
    ]
    for sysm, x in cases:
        ref = vel.velocity_matrix(sysm, x)
        fast = velocity_matrix_structured(sysm, x)
        assert np.allclose(fast, ref, rtol=1e-10, atol=1e-12), sysm.label


def test_structured_error_names_the_point():
    # x - 0.05 passes the construction probe but is negative at x = 0.03
    cases = [
        (systems.maxwell_isotropic(eps="x - 0.05", mu="1",
                              domain=systems.BoxDomain((0.0, 0.0), (1.0, 1.0))),
         [0.03, 0.5], "-2.000000e-02 (permittivity at [0.03 0.5 ])"),
        (systems.elastic_isotropic(rho="1", K="x - 0.05", mu="1",
                              domain=systems.BoxDomain((0.0,), (1.0,))),
         [0.03], "-6.000000e-02 (stiffness at [0.03])"),
    ]
    for sysm, x, tail in cases:
        with pytest.raises(MatrixError) as info:
            velocity_matrix_structured(sysm, x)
        assert str(info.value) == (
            "matrix is not positive definite: smallest eigenvalue " + tail)


def test_structured_rejects_custom_kind():
    with pytest.raises(UnsupportedSystemError):
        velocity_matrix_structured(systems.dirac_free(), [1.0, 0.0, 0.0])


def test_velocity_matrix_rejects_outside_point():
    with pytest.raises(ValueError, match="inside"):
        vel.velocity_matrix(systems.telegraph(), [2.0])


def test_elastic_2d_reduction_block():
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    sysm = systems.elastic_isotropic(rho="1", K="1", mu="0.3", domain=dom)
    M = vel.velocity_matrix(sysm, [0.5, 0.5])
    assert M.shape == (2, 2)
    assert np.allclose(M, 4.0 * np.eye(2), atol=1e-9)


# -- scalar speeds ----------------------------------------------------------

def test_char_speed_telegraph():
    sysm = systems.telegraph(L="4", C="1")
    assert vel.char_speed(sysm, [0.5], [1.0]) == pytest.approx(0.5, rel=1e-12)
    assert vel.char_speed(sysm, [0.5], [-1.0]) == pytest.approx(0.5, rel=1e-12)


def test_char_speed_maxwell_direction_free():
    sysm = systems.maxwell_isotropic(eps="2", mu="2", domain=UNIT_BOX_3)
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = rng.standard_normal(3)
        assert vel.char_speed(sysm, MID3, n) == pytest.approx(0.5, rel=1e-10)


def test_char_speed_dirac_is_one():
    sysm = systems.dirac_free()
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = rng.standard_normal(3)
        assert vel.char_speed(sysm, [1.0, 1.0, 1.0], n) == pytest.approx(1.0, rel=1e-12)


def test_char_speed_rejects_zero_direction():
    with pytest.raises(ValueError, match="nonzero"):
        vel.char_speed(systems.telegraph(), [0.5], [0.0])


def test_fattorini_values():
    assert vel.fattorini_r(systems.telegraph(L="1", C="1"), [0.5]) == pytest.approx(1.0)
    assert vel.fattorini_r(systems.maxwell_isotropic(domain=UNIT_BOX_3), MID3) == pytest.approx(1.0)
    assert vel.fattorini_r(systems.dirac_free(), [1.0, 0.0, 0.0]) == pytest.approx(1.0)


def test_chernoff_collapses_in_1d():
    sysm = systems.telegraph(L="exp(2*x)", C="1", domain=systems.BoxDomain((0.0,), (2.0,)))
    br = vel.chernoff_c(sysm, [0.7])
    c = math.exp(-0.7)
    assert br.lower == pytest.approx(c, rel=1e-12)
    assert br.upper == pytest.approx(c, rel=1e-12)


def test_chernoff_dirac_bracket():
    br = vel.chernoff_c(systems.dirac_free(), [1.0, 0.0, 0.0])
    assert br.lower == pytest.approx(1.0, rel=1e-10)
    assert br.upper == pytest.approx(math.sqrt(3.0), rel=1e-10)
    assert br.lower <= br.upper


def test_chernoff_maxwell_bracket():
    br = vel.chernoff_c(systems.maxwell_isotropic(domain=UNIT_BOX_3), MID3)
    assert br.lower == pytest.approx(1.0, rel=1e-10)
    assert br.upper == pytest.approx(math.sqrt(3.0), rel=1e-10)


FREE_SPACE_3 = systems.BoxDomain((-2.0,) * 3, (2.0,) * 3, unbounded_lower=(True,) * 3,
                            unbounded_upper=(True,) * 3)


@pytest.mark.parametrize("sysm", [
    systems.maxwell_isotropic(eps="1 + 0.1*sin(x)", mu="1 + 0.2*y*z", domain=FREE_SPACE_3),
    systems.dirac_free(),
], ids=["maxwell", "dirac"])
def test_speed_brackets_on_a_stack_equal_pointwise_calls(sysm):
    pts = np.random.default_rng(35).uniform(0.5, 1.5, (5, 3))
    br = vel.chernoff_c(sysm, pts)
    r = vel.fattorini_r(sysm, pts)
    assert br.lower.shape == br.upper.shape == r.shape == (5,)
    for i, x in enumerate(pts):
        one = vel.chernoff_c(sysm, x)
        assert isinstance(one.lower, float) and isinstance(one.upper, float)
        assert (br.lower[i], br.upper[i]) == (one.lower, one.upper)
        assert r[i] == vel.fattorini_r(sysm, x)


# -- invariants on random data ----------------------------------------------

SYSTEMS_AND_POINTS = [
    (systems.telegraph(L="1 + 0.5*sin(3*x)", C="2 - x"), lambda rng: rng.uniform(0.05, 0.95, 1)),
    (
        systems.maxwell_isotropic(eps="1 + x*y", mu="1 + 0.3*z", domain=UNIT_BOX_3),
        lambda rng: rng.uniform(0.05, 0.95, 3),
    ),
    (
        systems.elastic_isotropic(rho="1 + 0.2*x", K="2", mu="0.5", domain=UNIT_BOX_3),
        lambda rng: rng.uniform(0.05, 0.95, 3),
    ),
    (systems.dirac_free(), lambda rng: rng.uniform(0.5, 1.5, 3)),
]


def test_psd_property():
    psd = verify.get_check("velocity.psd")
    rng = np.random.default_rng(31)
    for sysm, draw in SYSTEMS_AND_POINTS:
        for _ in range(5):
            assert psd.residual((sysm, draw(rng))) <= psd.tolerance


def test_trace_identity():
    trace = verify.get_check("velocity.trace_identity")
    rng = np.random.default_rng(32)
    for sysm, draw in SYSTEMS_AND_POINTS:
        for _ in range(5):
            x = draw(rng)
            for _ in range(3):
                xi = rng.standard_normal(sysm.d)
                assert trace.residual((sysm, x, xi)) <= trace.tolerance


def test_speed_sandwich():
    sandwich = verify.get_check("velocity.symbol_norm_sandwich")
    rng = np.random.default_rng(33)
    for sysm, draw in SYSTEMS_AND_POINTS:
        for _ in range(5):
            x = draw(rng)
            for _ in range(4):
                xi = rng.standard_normal(sysm.d)
                # xi . M xi / k <= |s|^2, so tolerance / k is relative to |s|^2
                assert sandwich.residual((sysm, x, xi)) <= sandwich.tolerance / sysm.k


def test_fattorini_sandwich():
    bracket = verify.get_check("velocity.speed_bracket_order")
    rng = np.random.default_rng(34)
    for sysm, draw in SYSTEMS_AND_POINTS:
        for _ in range(3):
            assert bracket.residual((sysm, draw(rng))) <= bracket.tolerance


def test_scaling_covariance():
    covariance = verify.get_check("velocity.scaling_covariance")
    base = coupling_system("1 + 0.5*x^2")
    scaled = coupling_system("3*(1 + 0.5*x^2)")
    for x in ([0.0], [1.3], [-2.4]):
        assert covariance.residual((base, scaled, 3.0, np.array(x))) <= covariance.tolerance


# -- radial envelope --------------------------------------------------------

def test_radial_envelope_linear_growth():
    sysm = coupling_system("x")
    radii = np.array([0.5, 1.0, 2.0, 4.0])
    b = vel.radial_envelope(sysm, radii)
    assert np.allclose(b, radii, rtol=1e-10)


def test_radial_envelope_constant_field():
    sysm = coupling_system("2")
    b = vel.radial_envelope(sysm, [1.0, 2.0, 3.0])
    assert np.allclose(b, 2.0, rtol=1e-12)


def test_radial_envelope_quadratic_growth():
    sysm = coupling_system("1 + x^2")
    radii = np.array([1.0, 2.0, 3.0])
    b = vel.radial_envelope(sysm, radii)
    assert np.allclose(b, 1.0 + radii**2, rtol=1e-10)


def test_radial_envelope_monotone():
    # decaying coefficient still yields a nondecreasing envelope (running max)
    sysm = coupling_system("exp(-x^2)")
    b = vel.radial_envelope(sysm, [0.5, 1.0, 2.0, 3.0])
    assert np.all(np.diff(b) >= 0)
    assert b[-1] == pytest.approx(b[0], rel=1e-12)


def test_radial_envelope_rejects_bounded_domain():
    with pytest.raises(UnsupportedSystemError, match="boundary distance"):
        vel.radial_envelope(systems.telegraph(), [0.1, 0.2])


def test_radial_envelope_rejects_bad_radii():
    sysm = coupling_system("1")
    with pytest.raises(ValueError):
        vel.radial_envelope(sysm, [1.0, 1.0])
    with pytest.raises(ValueError):
        vel.radial_envelope(sysm, [-1.0, 1.0])


def test_radial_envelope_dirac_skips_excluded_ball():
    b = vel.radial_envelope(systems.dirac_free(radius=0.5), [1.0, 2.0])
    assert np.all(b > 0)
    with pytest.raises(ValueError, match="no admissible sample"):
        vel.radial_envelope(systems.dirac_free(radius=0.5), [0.3, 1.0])


class CountingField(systems.MatrixField):
    """Delegates to another field and counts the ``sample`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.k = inner.k
        self.calls = 0

    def sample(self, coords):
        self.calls += 1
        return self.inner.sample(coords)


def test_radial_envelope_samples_all_shells_at_once():
    base = systems.maxwell_isotropic(eps="1 + 0.1*sin(x)", mu="1", domain=FREE_SPACE_3)
    E = CountingField(base.E)
    sysm = dataclasses.replace(base, E=E)
    radii = 0.5 * 2.0 ** (np.arange(8) / 4)
    env = vel.radial_envelope(sysm, radii)
    assert E.calls <= sysm.d
    # the same bound, point by point, with its running maximum over the shells
    running, ref = 0.0, []
    for r in radii:
        for x in r * unit_directions(3):
            lam = np.linalg.eigvalsh(vel.velocity_matrix(base, x))[-1]
            bound = min(math.sqrt(max(lam, 0.0)), math.sqrt(3.0) * vel.fattorini_r(base, x))
            running = max(running, bound)
        ref.append(running)
    np.testing.assert_allclose(env, ref, rtol=1e-15, atol=0.0)


# -- the plane trace kernel against the whole-stack einsum ------------------

_VARS = "xyz"


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _constant_coefficient(rng, k, per_row, cplx):
    """A constant Hermitian k x k matrix: one nonzero per row (pairs of an
    involution) or several, complex with an antisymmetric imaginary part; its
    sign is flipped half the time, so its zeros are -0 as in the Maxwell curls."""
    if per_row == "one":
        perm = rng.permutation(k)
        mask = np.zeros((k, k), dtype=bool)
        for i in range(0, k - 1, 2):
            mask[perm[i], perm[i + 1]] = mask[perm[i + 1], perm[i]] = True
        if k % 2:
            mask[perm[-1], perm[-1]] = True
    else:
        mask = rng.random((k, k)) < 0.6
        mask |= mask.T
    a = np.where(mask, rng.uniform(-2.0, 2.0, (k, k)), 0.0)
    a = a + a.T
    if cplx:
        b = np.where(mask, rng.uniform(-1.0, 1.0, (k, k)), 0.0)
        a = a + 1j * (b - b.T)
    return -a if rng.random() < 0.5 else a


def _diagonal_weight_system(rng, d, per_row, cplx, expression_axis):
    """A custom system with a diagonal expression weight (some cells constant)
    and constant coefficients, one of them an expression field when asked."""
    k = int(rng.integers(2, 6))
    cells = []
    for i in range(k):
        if rng.random() < 0.25:
            cells.append(float(rng.uniform(0.5, 2.0)))
            continue
        v = _VARS[int(rng.integers(d))]
        c, amp, w = rng.uniform(1.0, 2.0), rng.uniform(0.0, 0.9), rng.uniform(1.0, 6.0)
        cells.append(f"{c:.4f} + {amp:.4f}*sin({w:.4f}*{v} + {i})")
    E = systems.ExprMatrixField([[cells[i] if i == j else 0.0 for j in range(k)] for i in range(k)])
    A = [systems.ConstMatrixField(_constant_coefficient(rng, k, per_row, cplx)) for _ in range(d)]
    if expression_axis:
        a = A[0].mat.real
        A[0] = systems.ExprMatrixField([[f"{a[i, j]:.6f}*(1 + x)" if a[i, j] else 0.0 for j in range(k)]
                                   for i in range(k)])
    return systems.CoefficientSystem(domain=systems.BoxDomain((0.0,) * d, (1.0,) * d), k=k, E=E,
                                A=tuple(A), V=systems.ConstMatrixField(np.zeros((k, k))))


def _oracle_system(kind, d, rng):
    dom = systems.BoxDomain((0.0,) * d, (1.0,) * d)
    if kind == "diagonal-one":
        return _diagonal_weight_system(rng, d, "one", False, False)
    if kind == "diagonal-several":
        return _diagonal_weight_system(rng, d, "several", False, False)
    if kind == "diagonal-expression-A":
        return _diagonal_weight_system(rng, d, "several", False, True)
    if kind == "diagonal-complex":
        return _diagonal_weight_system(rng, d, "several", True, False)
    if kind == "dirac":
        return systems.dirac_free()
    if kind == "identity-complex":
        k = int(rng.integers(2, 5))
        A = tuple(systems.ConstMatrixField(_constant_coefficient(rng, k, "several", True))
                  for _ in range(d))
        return systems.CoefficientSystem(domain=dom, k=k, E=systems.ConstMatrixField(np.eye(k)), A=A,
                                    V=systems.ConstMatrixField(np.zeros((k, k))))
    a, b, c = rng.uniform(0.1, 0.4, 3)
    if kind == "elastic":
        return systems.elastic_isotropic(rho=f"1 + {a:.4f}*x", K=f"2 + {b:.4f}*sin(3*x)",
                                    mu=f"1 + {c:.4f}*x*x", domain=dom)
    dom = systems.BoxDomain((0.0,) * max(d, 2), (1.0,) * max(d, 2))
    eps = [["2 + x", f"{a:.4f}*y", "0"], [f"{a:.4f}*y", f"2 + {b:.4f}*x", "0.1"],
           ["0", "0.1", f"1.5 + {c:.4f}*y"]]
    return systems.maxwell_anisotropic(eps, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], domain=dom)


# The plane kernels must give every bit of the whole-stack formula: the
# canonical B^j as dense stacks and their traces contracted with einsum.
@pytest.mark.parametrize("kind", ["diagonal-one", "diagonal-several", "diagonal-expression-A",
                                  "diagonal-complex", "identity-complex", "dirac", "elastic",
                                  "maxwell-anisotropic"])
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(d=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_plane_traces_have_the_bits_of_the_einsum_over_whole_stacks(kind, d, seed):
    rng = np.random.default_rng(seed)
    sysm = _oracle_system(kind, d, rng)
    d = sysm.d
    grid = grids.Grid(sysm.domain, tuple(int(n) for n in rng.integers(8, 11, d)))
    coords = tuple(np.meshgrid(*grid.axes, indexing="ij", sparse=True))
    full = grid.shape + (d, d)
    want = np.broadcast_to(stack_traces(canonical_stacks(sysm, coords)), full)
    traces = vel._traces(systems.canonical_planes(sysm, coords))
    got = np.broadcast_to(traces, full)
    assert np.array_equal(bits(got), bits(want))
    fld = vel.VelocityField.from_system(sysm, grid)
    assert fld.M_samples.shape == ((1,) * d if traces.ndim == 2 else grid.shape) + (d, d)
    assert np.array_equal(bits(np.broadcast_to(fld.M_samples, full)), bits(want))
    nodes = grid.coords().reshape(-1, d)
    inside = nodes[sysm.domain.contains(nodes, strict=True)]
    points = inside[rng.permutation(len(inside))[:5]]
    stack = vel.velocity_matrix(sysm, points)
    want = stack_traces(canonical_stacks(sysm, tuple(points.T)))
    assert np.array_equal(bits(stack), bits(np.broadcast_to(want, stack.shape)))
    for x, m in zip(points, stack):
        one = vel.velocity_matrix(sysm, x)
        assert np.array_equal(bits(one), bits(stack_traces(canonical_stacks(sysm, tuple(x)))))
        assert np.array_equal(bits(one), bits(m))


def test_velocity_matrix_at_a_node_is_the_grid_sample_there():
    sysm = systems.maxwell_isotropic("1 + 0.4*sin(6*x + 1.0)*cos(4*y)", "2 - x*y",
                                domain=systems.BoxDomain((0.0,) * 2, (1.0,) * 2))
    grid = grids.Grid(sysm.domain, (16, 17))
    fld = vel.VelocityField.from_system(sysm, grid)
    for idx in [(0, 0), (5, 11), (15, 16)]:
        assert np.array_equal(bits(vel.velocity_matrix(sysm, grid.node_coords(idx))),
                              bits(fld.M_samples[idx]))


def test_diagonal_weight_with_constant_coefficients_keeps_only_their_nonzeros():
    # each 2-D Maxwell curl coefficient has 4 nonzero entries out of 36
    sysm = systems.maxwell_isotropic("1 + x*y", "2", domain=systems.BoxDomain((0.0,) * 2, (1.0,) * 2))
    coords = tuple(np.meshgrid(np.linspace(0.1, 0.9, 8), np.linspace(0.1, 0.9, 9),
                               indexing="ij", sparse=True))
    planes = systems.canonical_planes(sysm, coords)
    assert [p.entries for p in planes] == [((1, 5), (2, 4), (4, 2), (5, 1)),
                                           ((0, 5), (2, 3), (3, 2), (5, 0))]
    assert all(p.values.shape == (4, 8, 9) for p in planes)
    for p, B in zip(planes, canonical_stacks(sysm, coords)):
        assert np.array_equal(p.dense(), B)


def test_field_and_cfl_step_stay_below_one_dense_matrix_stack():
    # one 6x6 float64 matrix per node of the 128^2 grid is 4.72 MB
    sysm = systems.maxwell_isotropic("1 + 0.4*sin(6*x + 1.0)*cos(4*y)", "1",
                                domain=systems.BoxDomain((0.0,) * 2, (1.0,) * 2))
    grid = grids.Grid(sysm.domain, (128, 128))
    stack = 128 * 128 * 6 * 6 * 8
    for build in (lambda: vel.VelocityField.from_system(sysm, grid),
                  lambda: ev.cfl_dt(sysm, grid, 0.4)):
        build()
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack, peak


@pytest.mark.parametrize("call, message", [
    (lambda: vel.velocity_matrix(systems.telegraph(), [1.5]), "is not inside the domain"),
    (lambda: vel.char_speed(systems.telegraph(), [0.5], [0.0]), "direction must be nonzero"),
    (lambda: vel.radial_envelope(coupling_system("1"), []), "non-empty 1-D sequence"),
    (lambda: vel.radial_envelope(coupling_system("1"), [1.0, 1.0]), "strictly increasing"),
    (lambda: vel.radial_envelope(systems.dirac_free(radius=0.5), [0.3, 1.0]),
     "no admissible sample"),
    (lambda: vel.majorant(vel.VelocityField(grids.Grid(systems.BoxDomain((0.0,), (1.0,)), (8,)),
                                            np.ones((8, 1, 1))), 1.5),
     r"slack must lie in \(0, 1\)"),
], ids=["outside", "zero-direction", "no-radii", "radii-order", "empty-shell", "slack"])
def test_bad_arguments_raise_validation_error(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


# -- sampled fields and majorants -------------------------------------------

def test_field_from_system_matches_pointwise():
    dom = systems.BoxDomain((0.0,) * 3, (1.0,) * 3)
    sysm = systems.maxwell_isotropic(eps="1 + x*y", mu="1 + 0.3*z", domain=dom)
    grid = grids.Grid(dom, (8, 8, 8))
    fld = vel.VelocityField.from_system(sysm, grid)
    assert fld.M_samples.shape == (8, 8, 8, 3, 3)
    for idx in [(0, 0, 0), (3, 5, 7), (7, 7, 7)]:
        x = grid.node_coords(idx)
        assert np.allclose(fld.M_samples[idx], vel.velocity_matrix(sysm, x), atol=1e-10)


def test_diagonal_weight_field_needs_no_eigendecomposition(monkeypatch):
    dom = systems.BoxDomain((0.0,) * 2, (1.0,) * 2)
    sysm = systems.maxwell_isotropic(eps="1 + 0.4*sin(6*x)*cos(4*y)", mu="1", domain=dom)
    grid = grids.Grid(dom, (16, 16))
    want = vel.VelocityField.from_system(sysm, grid).M_samples

    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called for a diagonal weight")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert sysm.E.is_diagonal
    assert vel.VelocityField.from_system(sysm, grid).M_samples.tobytes() == want.tobytes()


def test_field_rejects_indefinite_samples():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (8,))
    M = np.full((8, 1, 1), -1.0)
    with pytest.raises(ValidationError, match="positive semi-definite"):
        vel.VelocityField(grid, M)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("which", ["M samples", "majorant"])
def test_field_rejects_non_finite_samples(which, bad):
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    grid = grids.Grid(dom, (8, 8))
    M = np.tile(np.eye(2), (8, 8, 1, 1))
    H = 2.0 * M
    (M if which == "M samples" else H)[6, 1, 1, 1] = bad
    with pytest.raises(ValidationError, match=rf"{which} not finite at node \(6, 1\)"):
        vel.VelocityField(grid, M, majorant_samples=H)


def test_field_rejects_asymmetric_samples():
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    grid = grids.Grid(dom, (8, 8))
    M = np.zeros((8, 8, 2, 2))
    M[..., 0, 1] = 1.0
    with pytest.raises(ValidationError, match="asymmetric"):
        vel.VelocityField(grid, M)


def test_field_names_the_node_a_majorant_fails_to_dominate_at():
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    grid = grids.Grid(dom, (8, 8))
    M = np.tile(np.eye(2), (8, 8, 1, 1))
    H = 2.0 * M
    H[3, 4] = 0.5 * M[3, 4]
    with pytest.raises(ValidationError) as info:
        vel.VelocityField(grid, M, majorant_samples=H)
    assert str(info.value) == "majorant fails to dominate at node (3, 4): eigenvalue gap -5.000e-01"


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(d=st.integers(1, 3), seed=st.integers(0, 2**16),
       planes=st.lists(st.sampled_from(["zero", "minus zero", "signed zeros", "one node", "full",
                                        "constant"]),
                       min_size=6, max_size=6))
def test_planewise_mollifier_has_the_bits_of_smoothing_every_plane(d, seed, planes):
    shape = (9, 8, 8)[:d]
    rng = np.random.default_rng(seed)
    samples = np.zeros(shape + (d, d))
    for (i, j), kind in zip(zip(*np.triu_indices(d)), planes):
        plane = {
            "zero": np.zeros(shape),
            "minus zero": np.full(shape, -0.0),
            "signed zeros": np.where(rng.random(shape) < 0.5, 0.0, -0.0),
            "one node": np.where(np.arange(np.prod(shape)).reshape(shape) == seed % 8,
                                 rng.normal(), -0.0),
            "full": rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30),
            "constant": np.full(shape, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-323, 300)),
        }[kind]
        samples[..., i, j] = samples[..., j, i] = plane
    got = vel._mollify(samples, d)
    assert got.tobytes() == mollify_every_plane(samples, d).tobytes()


@pytest.mark.parametrize("value", [5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-300, -1.0,
                                   1.0 / 3.0, 7.3e12, -4.5e150, 1e300],
                         ids=lambda v: f"{v:.3g}")
@pytest.mark.parametrize("d", [1, 2, 3])
def test_constant_planes_smooth_once_with_the_bits_of_the_whole_plane(monkeypatch, d, value):
    # a field of one matrix, (1,)*d + (d, d), is smoothed as one node and has
    # the bits of every node of its full stack
    shape = (9, 8, 7)[:d]
    stacks = []
    smooth = vel._smooth_axis

    def smooth_axis(a, axis):
        stacks.append(a.shape)
        return smooth(a, axis)

    monkeypatch.setattr(vel, "_smooth_axis", smooth_axis)
    rng = np.random.default_rng(7)
    samples = np.zeros(shape + (d, d))
    samples[...] = value * np.eye(d)
    one = samples[(slice(0, 1),) * d].copy()
    if d > 1:  # a dead plane: -0 at the one node, +0 and -0 mixed in the full stack
        one[..., 0, d - 1] = one[..., d - 1, 0] = -0.0
        samples[..., 0, d - 1] = samples[..., d - 1, 0] = np.where(rng.random(shape) < 0.5,
                                                                   0.0, -0.0)
    got = vel._mollify(one, d)
    want = mollify_every_plane(samples, d)
    assert got.shape == one.shape
    assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes()
    assert not np.signbit(got[got == 0.0]).any()
    # two passes along d axes, the d diagonal planes as one node
    assert stacks == [(d,) + (1,) * d] * (2 * d)


def test_majorant_constant_field():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (16,))
    M = np.tile(np.array([[2.0]]), (16, 1, 1))
    out = vel.majorant(vel.VelocityField(grid, M), 0.25)
    assert out.delta == 0.25
    expected = 1.25 * 2.0 + 1e-12 * 2.0
    assert np.allclose(out.majorant_samples, expected, rtol=1e-12)


def test_majorant_quadratic_field_first_try():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (64,))
    x = grid.axes[0]
    M = (2.0 * x**2).reshape(-1, 1, 1)
    out = vel.majorant(vel.VelocityField(grid, M), 0.1)
    assert out.delta == 0.1
    gap = out.majorant_samples - out.M_samples
    assert gap.min() >= -1e-10 * np.abs(out.majorant_samples).max()


def test_majorant_zero_field_warns():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (16,))
    fld = vel.VelocityField(grid, np.zeros((16, 1, 1)))
    with pytest.warns(UserWarning, match="vanishes"):
        out = vel.majorant(fld, 0.1)
    assert np.allclose(out.majorant_samples, 1e-12)


def test_majorant_escalates_slack():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (32,))
    M = np.ones((32, 1, 1))
    M[16, 0, 0] = 1.35  # single bump needing roughly 23% slack
    out = vel.majorant(vel.VelocityField(grid, M), 0.15)
    assert out.delta == pytest.approx(0.3)


def test_majorant_gives_up_on_rough_field():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (64,))
    M = np.zeros((64, 1, 1))
    M[::2, 0, 0] = 1e6
    with pytest.raises(MajorantError, match="refine the grid"):
        vel.majorant(vel.VelocityField(grid, M), 0.1)


def test_node_norms_are_taken_once_per_field_and_majorant(monkeypatch):
    # the field keeps the norms of M and of the attached majorant; majorant()
    # and metric_from_velocity reuse them, with the bits of recomputing them
    from wavemetric import geometry as geo

    # speed 2 sin^2(pi x): M = 4 sin^4 sets eps above its floor and is small
    # enough near the ends for eps to show in the majorant's bits
    sysm = systems.telegraph("0.5/sin(pi*x)^2", "0.5/sin(pi*x)^2")
    grid = grids.Grid(sysm.domain, (64,))
    calls = []
    node_norms = vel._node_norms
    monkeypatch.setattr(vel, "_node_norms", lambda a: calls.append(a.shape) or node_norms(a))
    fld = vel.VelocityField.from_system(sysm, grid)
    assert len(calls) == 1
    maj = vel.majorant(fld, 0.1)
    assert len(calls) == 2 and maj.delta == 0.1
    metric = geo.metric_from_velocity(maj)
    assert len(calls) == 2
    monkeypatch.undo()

    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    assert np.array_equal(bits(fld.M_norms), bits(np.linalg.norm(fld.M_samples, axis=(-2, -1))))
    assert fld.majorant_norms is None
    H = maj.majorant_samples
    assert np.array_equal(bits(maj.majorant_norms), bits(np.linalg.norm(H, axis=(-2, -1))))
    eps = max(vel.EPS_REG_REL * float(np.linalg.norm(fld.M_samples, axis=(-2, -1)).max()),
              vel.EPS_REG_FLOOR)
    assert eps > vel.EPS_REG_FLOOR
    assert np.array_equal(bits(H), bits(1.1 * vel._mollify(fld.M_samples, 1) + eps * np.eye(1)))
    direct = vel.VelocityField(grid, fld.M_samples, majorant_samples=H)
    assert np.array_equal(bits(direct.majorant_norms), bits(maj.majorant_norms))
    again = geo.metric_from_velocity(direct)
    assert np.array_equal(bits(again.G_samples), bits(metric.G_samples))


def test_metric_floor_follows_assigned_majorant_samples():
    from wavemetric import geometry as geo

    sysm = systems.telegraph("0.5/sin(pi*x)^2", "0.5/sin(pi*x)^2")
    grid = grids.Grid(sysm.domain, (64,))
    fld = vel.majorant(vel.VelocityField.from_system(sysm, grid), 0.1)
    before = geo.metric_from_velocity(fld)
    # scaling one node by 1e13 raises the floor above the majorant elsewhere
    H = fld.majorant_samples.copy()
    H[32] *= 1e13
    fld.majorant_samples = H
    fresh = vel.VelocityField(grid, fld.M_samples, majorant_samples=H)
    with pytest.warns(UserWarning, match="metric eigenvalues capped"):
        got = geo.metric_from_velocity(fld)
    with pytest.warns(UserWarning, match="metric eigenvalues capped"):
        want = geo.metric_from_velocity(fresh)
    assert got.degenerate and not before.degenerate
    assert np.array_equal(bits(got.G_samples), bits(want.G_samples))
    assert np.array_equal(bits(fld.majorant_norms), bits(np.linalg.norm(H, axis=(-2, -1))))


def test_majorant_rejects_bad_slack():
    dom = systems.BoxDomain((0.0,), (1.0,))
    grid = grids.Grid(dom, (16,))
    fld = vel.VelocityField(grid, np.ones((16, 1, 1)))
    with pytest.raises(ValueError):
        vel.majorant(fld, 0.0)
    with pytest.raises(ValueError):
        vel.majorant(fld, 1.5)


def test_symbol_norm_below_majorant_quadratic_form():
    # for a smooth scalar profile f, the squared symbol norm along grad f
    # stays below the majorant quadratic form at every node
    dom = systems.BoxDomain((0.0,), (2.0,))
    sysm = systems.telegraph(L="1 + 0.5*sin(2*x)", C="1", domain=dom)
    can = systems.canonicalize(sysm)
    grid = grids.Grid(dom, (64,))
    fld = vel.majorant(vel.VelocityField.from_system(sysm, grid), 0.1)
    x = grid.axes[0]
    grad_f = 2.0 * np.cos(2.0 * x) + 0.15 * np.sin(5.0 * x)
    for i in range(0, 64, 7):
        B = can.A[0](np.array([x[i]]))
        s2 = op_norm(grad_f[i] * B) ** 2
        quad = grad_f[i] * fld.majorant_samples[i, 0, 0] * grad_f[i]
        assert s2 <= quad * (1 + 1e-9) + 1e-12


def test_csv_export_round_trip(tmp_path):
    dom = systems.BoxDomain((0.0, 0.0), (1.0, 1.0))
    sysm = systems.elastic_isotropic(rho="1", K="1 + x", mu="0.3", domain=dom)
    grid = grids.Grid(dom, (8, 8))
    fld = vel.VelocityField.from_system(sysm, grid)
    path = tmp_path / "velocity.csv"
    vel.to_csv(fld, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,M11,M12,M22"
    assert len(lines) == 1 + 64
    first = lines[1].split(",")
    assert float(first[0]) == grid.axes[0][0]
    assert float(first[2]) == fld.M_samples[0, 0, 0, 0]
