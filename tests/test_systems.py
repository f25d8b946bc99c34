import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import wavemetric as wm
from wavemetric import systems
from wavemetric.errors import MatrixError, SingularMatrixError, ValidationError
from wavemetric.matkernel import spd_inv_sqrt
from wavemetric.systems import CURL_GENERATORS, STRAIN_GENERATORS


UNIT_BOX_3 = wm.BoxDomain((0.0,) * 3, (1.0,) * 3)


# -- domains ----------------------------------------------------------------

def test_box_contains_strict():
    dom = wm.BoxDomain((0.0, 0.0), (1.0, 2.0))
    assert dom.contains([0.5, 1.0])
    assert not dom.contains([0.0, 1.0])
    assert dom.contains([0.0, 1.0], strict=False)
    assert not dom.contains([1.5, 1.0], strict=False)


def test_box_boundary_distance():
    dom = wm.BoxDomain((0.0, 0.0), (1.0, 2.0))
    assert dom.boundary_distance([0.3, 1.0]) == pytest.approx(0.3)
    assert dom.boundary_distance([0.5, 1.9]) == pytest.approx(0.1)


def test_unbounded_sides_do_not_count_as_boundary():
    dom = wm.BoxDomain((-2.0,), (2.0,), unbounded_lower=(True,), unbounded_upper=(True,))
    assert dom.boundary_distance([0.0]) == math.inf
    assert dom.contains([100.0])


def test_excluded_ball_is_boundary():
    dom = wm.BoxDomain(
        (-2.0,) * 2, (2.0,) * 2,
        unbounded_lower=(True, True), unbounded_upper=(True, True),
        excluded_ball=((0.0, 0.0), 0.5),
    )
    assert not dom.contains([0.1, 0.1])
    assert dom.contains([1.0, 0.0])
    assert dom.boundary_distance([1.0, 0.0]) == pytest.approx(0.5)


def test_infinite_bound_requires_flag():
    with pytest.raises(ValueError, match="unbounded flag"):
        wm.BoxDomain((0.0,), (math.inf,))


# -- field evaluation -------------------------------------------------------

UNIT_BOX_2 = wm.BoxDomain((0.0, 0.0), (1.0, 1.0))
AXES_2 = (np.linspace(0.1, 0.9, 8), np.linspace(0.2, 0.8, 9))


def maxwell_anisotropic_variable():
    eps = [["2 + x", "0.3*y", 0], ["0.3*y", "1 + y^2", "0.1*x"], [0, "0.1*x", "1.5"]]
    mu = [["1 + 0.5*x*y", 0, 0], [0, 1, "0.2"], [0, "0.2", "1 + x"]]
    return wm.maxwell_anisotropic(eps, mu, domain=UNIT_BOX_2)


def elastic_isotropic_variable():
    return wm.elastic_isotropic(rho="1 + x", K="2 + sin(3*y)", mu="1 + 0.5*x*y",
                                domain=UNIT_BOX_2)


@pytest.mark.parametrize("make", [
    lambda: wm.ExprMatrixField([["exp(x)", "x*y"], ["x*y", "1 + y^2"]]),
    lambda: maxwell_anisotropic_variable().E,
    lambda: elastic_isotropic_variable().E,
], ids=["expr", "maxwell_anisotropic", "elastic_isotropic"])
def test_expr_field_grid_matches_pointwise(make):
    fld = make()
    grid = fld.on_grid(AXES_2)
    assert grid.shape == (8, 9, fld.k, fld.k)
    for i in (0, 3, 7):
        for j in (0, 4, 8):
            assert np.array_equal(grid[i, j], fld(np.array([AXES_2[0][i], AXES_2[1][j]])))


def test_const_field_identity_flag():
    assert wm.ConstMatrixField(np.eye(3)).is_identity
    assert not wm.ConstMatrixField(2 * np.eye(3)).is_identity


_EYE_TABLE = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("make, diagonal", [
    (lambda: wm.telegraph("1 + x", "2").E, True),
    (lambda: wm.maxwell_isotropic("1 + x*y", "2", domain=UNIT_BOX_2).E, True),
    (lambda: wm.maxwell_anisotropic(_EYE_TABLE, [["2", 0, 0], [0, "1 + x", "0"], [0, "0", 1]],
                                    domain=UNIT_BOX_2).E, True),
    (lambda: maxwell_anisotropic_variable().E, False),
    (lambda: wm.elastic_isotropic().E, False),
    (lambda: wm.dirac_free().E, True),
    (lambda: wm.ConstMatrixField(np.diag([2.0, 3.0])), True),
    (lambda: wm.ConstMatrixField([[2.0, 0.5], [0.5, 3.0]]), False),
    (lambda: wm.ExprMatrixField([["1 + x", "0*x"], ["0*x", "1"]]), False),
    (lambda: wm.FuncMatrixField(lambda x: np.eye(2), 2), False),
], ids=["telegraph", "maxwell_isotropic", "maxwell_anisotropic-diagonal-tables",
        "maxwell_anisotropic-off-diagonal", "elastic_isotropic", "dirac_free", "const-diagonal",
        "const-full", "expr-zero-expression", "func"])
def test_diagonal_answer_comes_from_structure(make, diagonal):
    # only constant zeros and literal-0 cells count; a formula or callable
    # that happens to vanish off the diagonal does not
    assert make().is_diagonal is diagonal


def test_eval_coeffs_rejects_exterior_point():
    sysm = wm.telegraph()
    with pytest.raises(ValueError, match="strictly inside"):
        wm.eval_coeffs(sysm, [1.5])


def test_symbol_combines_directions():
    sysm = wm.maxwell_isotropic(domain=UNIT_BOX_3)
    xi = np.array([0.3, -1.2, 0.5])
    s = wm.symbol(sysm, [0.5, 0.5, 0.5], xi)
    manual = sum(c * A.mat for c, A in zip(xi, sysm.A))
    assert np.allclose(np.asarray(s), manual)


# -- built-in families ------------------------------------------------------

def test_telegraph_weight_and_coupling():
    sysm = wm.telegraph(L="2", C="8")
    E, (A1,), V = wm.eval_coeffs(sysm, [0.5])
    assert np.allclose(E, np.diag([2.0, 8.0]))
    assert np.allclose(A1, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(V, 0.0)


def test_telegraph_rejects_nonpositive_inductance():
    with pytest.raises(ValidationError, match="positive"):
        wm.telegraph(L="x - 0.5", C="1")


def test_curl_generators_trace_identity():
    for j in range(3):
        for l in range(3):
            t = np.trace(CURL_GENERATORS[j] @ CURL_GENERATORS[l].T)
            assert t == pytest.approx(2.0 if j == l else 0.0)


def test_strain_generators_shape_and_rank():
    for a in STRAIN_GENERATORS:
        assert a.shape == (6, 3)
        assert np.linalg.matrix_rank(a) == 3


def test_maxwell_weight_blocks():
    sysm = wm.maxwell_isotropic(eps="2", mu="3", domain=UNIT_BOX_3)
    E, A, V = wm.eval_coeffs(sysm, [0.5, 0.5, 0.5])
    assert np.allclose(E, np.diag([2.0] * 3 + [3.0] * 3))
    assert len(A) == 3
    for Aj in A:
        assert np.allclose(Aj, Aj.T)


def test_maxwell_d2_reduction_uses_first_two_generators():
    dom = wm.BoxDomain((0.0, 0.0), (1.0, 1.0))
    sysm = wm.maxwell_isotropic(domain=dom)
    assert len(sysm.A) == 2
    full = wm.maxwell_isotropic(domain=UNIT_BOX_3)
    for j in range(2):
        assert np.array_equal(sysm.A[j].mat, full.A[j].mat)


def test_maxwell_rejects_indefinite_permittivity():
    with pytest.raises(ValidationError, match="positive definite"):
        wm.maxwell_anisotropic(
            eps=[[1, 0, 0], [0, -1, 0], [0, 0, 1]],
            mu=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            domain=UNIT_BOX_3,
        )


@pytest.mark.parametrize("skew, accepted", [(1.84e-13, False), (1e-14, True)])
def test_weight_is_built_only_if_the_kernel_accepts_it(skew, accepted):
    # every entry pair of eps is within 1e-13 of its norm, but the Frobenius
    # defect of eps can still exceed what the kernels accept
    eps = [[1, 0.5 + skew, 0], [0.5, 1, 0], [0, 0, 1]]
    build = lambda: wm.maxwell_anisotropic(eps, _EYE_TABLE, domain=UNIT_BOX_2)
    if not accepted:
        with pytest.raises(ValidationError, match=r"^matrix is not Hermitian: relative defect "
                                                  r"1\.391e-13 .* \(permittivity at "):
            build()
        return
    sysm = build()
    assert wm.validate_system(sysm, samples=32).ok
    grid = wm.Grid(UNIT_BOX_2, (8, 9))
    coords = tuple(np.meshgrid(*grid.axes, indexing="ij", sparse=True))
    assert all(np.all(np.isfinite(b)) for b in systems.canonical_A(sysm, coords))


def test_validate_holds_the_weight_to_the_kernel_hermitian_test():
    E = [[1.0, 0.5 + 1.3e-13], [0.5, 1.0]]
    sysm = wm.CoefficientSystem(
        domain=wm.BoxDomain((0.0,), (1.0,)),
        k=2,
        E=wm.ExprMatrixField(E),
        A=(wm.ConstMatrixField(np.array([[0.0, 1.0], [1.0, 0.0]])),),
        V=wm.ConstMatrixField(np.zeros((2, 2))),
    )
    assert np.abs(np.subtract(E, np.transpose(E))).max() / np.linalg.norm(E) <= 1e-13
    rep = wm.validate_system(sysm, samples=8)
    assert not rep.ok
    assert rep.issues == ["matrix is not Hermitian: relative defect 1.163e-13 exceeds 1e-13, "
                          "largest at entries (1, 2) and (2, 1) (E at [0.5])"]
    with pytest.raises(MatrixError, match="not Hermitian"):
        systems.canonical_A(sysm, np.array([0.5]))


def test_elastic_isotropic_stiffness_structure():
    sysm = wm.elastic_isotropic(rho="2", K="3", mu="1.5", domain=UNIT_BOX_3)
    C = sysm.parts["stiffness"](np.array([0.5, 0.5, 0.5]))
    lam = 3.0 - 2.0 * 1.5 / 3.0
    assert np.allclose(np.diagonal(C)[:3], lam + 2 * 1.5)
    assert np.allclose(np.diagonal(C)[3:], 1.5)
    assert C[0, 1] == pytest.approx(lam)
    E, _, _ = wm.eval_coeffs(sysm, [0.5, 0.5, 0.5])
    # velocity block carries rho * C^{-1}; displacement-rate block is identity
    assert np.allclose(E[:6, :6], 2.0 * np.linalg.inv(C))
    assert np.allclose(E[6:, 6:], np.eye(3))


def test_elastic_21_entry_round_trip():
    K, mu = 2.0, 0.7
    dg, off = K + 4 * mu / 3, K - 2 * mu / 3
    tri = [dg, off, off, 0, 0, 0,
           dg, off, 0, 0, 0,
           dg, 0, 0, 0,
           mu, 0, 0,
           mu, 0,
           mu]
    direct = wm.elastic(rho=1.3, stiffness=tri, domain=UNIT_BOX_3)
    iso = wm.elastic_isotropic(rho="1.3", K=str(K), mu=str(mu), domain=UNIT_BOX_3)
    x = np.array([0.3, 0.6, 0.9])
    assert np.allclose(direct.E(x), iso.E(x))


def test_elastic_wrong_entry_count():
    with pytest.raises(ValueError, match="21"):
        wm.elastic(rho=1.0, stiffness=[1.0] * 20)


def test_dirac_structure():
    sysm = wm.dirac_free(radius=0.1)
    assert sysm.k == 4 and sysm.d == 3
    for A in sysm.A:
        a = A(np.zeros(3))
        assert np.allclose(a, a.conj().T)
        # alphas square to the identity and anticommute
        assert np.allclose(a @ a, np.eye(4))
    a1, a2 = sysm.A[0](np.zeros(3)), sysm.A[1](np.zeros(3))
    assert np.allclose(a1 @ a2 + a2 @ a1, 0.0)
    assert sysm.domain.excluded_ball[1] == 0.1


# -- canonical transform ----------------------------------------------------

def test_canonical_telegraph_constant():
    sysm = wm.canonicalize(wm.telegraph(L="4", C="1"))
    x = np.array([0.5])
    assert np.allclose(sysm.A[0](x), [[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(sysm.V(x), 0.0)
    assert np.allclose(np.asarray(sysm.E(x)), np.eye(2))


def test_canonical_telegraph_variable():
    dom = wm.BoxDomain((0.0,), (2.0,))
    sysm = wm.canonicalize(wm.telegraph(L="exp(2*x)", C="1", domain=dom))
    x = np.array([0.7])
    r = math.exp(-0.7)
    assert np.allclose(sysm.A[0](x), [[0.0, r], [r, 0.0]], atol=1e-12)
    V = sysm.V(x)
    assert abs(V[0, 1] - (-0.5j * r)) < 1e-9
    assert abs(V[1, 0] - (0.5j * r)) < 1e-9
    assert np.allclose(V, V.conj().T)
    assert np.allclose(np.diagonal(V), 0.0, atol=1e-9)


def test_canonical_gradient_term_vanishes_for_constant_weight():
    sysm = wm.maxwell_isotropic(eps="2", mu="5", domain=UNIT_BOX_3)
    v0 = wm.zero_order_term(sysm, [0.5, 0.5, 0.5])
    assert np.allclose(v0, 0.0, atol=1e-10)


def test_canonical_idempotent():
    sysm = wm.canonicalize(wm.telegraph(L="1 + x", C="1"))
    again = wm.canonicalize(sysm)
    assert again is sysm


def test_canonical_identity_weight_short_circuit():
    sysm = wm.dirac_free()
    can = wm.canonicalize(sysm)
    assert can.canonical
    assert can.A is sysm.A


def test_analytic_gradient_matches_finite_difference():
    # E = diag(exp(2x), 1) so d/dx E^{-1/2} = diag(-exp(-x), 0)
    dom = wm.BoxDomain((0.0,), (2.0,))
    base = wm.telegraph(L="exp(2*x)", C="1", domain=dom)
    grad = wm.FuncMatrixField(
        lambda x: np.diag([-math.exp(-x[0]), 0.0]), 2
    )
    from dataclasses import replace
    analytic = replace(base, E_grad=(grad,))
    x = np.array([0.9])
    vfd = wm.canonicalize(base).V(x)
    van = wm.canonicalize(analytic).V(x)
    assert np.allclose(vfd, van, atol=1e-9)


def test_gradient_step_shrinks_near_boundary():
    dom = wm.BoxDomain((0.0,), (1.0,))
    sysm = wm.telegraph(L="1 + x", C="1", domain=dom)
    can = wm.canonicalize(sysm)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        can.V(np.array([1e-7]))
    assert any("shrunk" in str(w.message) for w in rec)


@pytest.mark.parametrize("make, shape", [
    (lambda: wm.telegraph(L="exp(2*x)", C="1 + 0.5*x", domain=wm.BoxDomain((0.0,), (2.0,))),
     (16,)),
    (maxwell_anisotropic_variable, (8, 9)),
    (elastic_isotropic_variable, (8, 9)),
], ids=["telegraph", "maxwell_anisotropic", "elastic_isotropic"])
def test_canonical_grid_matches_pointwise(make, shape):
    sysm = make()
    can = wm.canonicalize(sysm)
    g = wm.Grid(sysm.domain, shape)
    fields = [can.V] + list(can.A)
    samples = [f.on_grid(g.axes) for f in fields]
    for index in [(0,) * g.d, tuple(n // 2 for n in shape), tuple(n - 1 for n in shape)]:
        x = g.node_coords(index)
        for f, s in zip(fields, samples):
            assert np.array_equal(s[index], f(x))


def test_closure_grid_gradient_raises_positioned_error():
    dom = wm.BoxDomain((0.0,), (1.0,))
    can = wm.canonicalize(wm.telegraph(L="1 + x", C="1", domain=dom))
    g = wm.Grid(dom, (16,), interior=False)
    with pytest.raises(ValidationError) as info:
        can.V.on_grid(g.axes)
    assert str(info.value) == (
        "no room for a finite-difference step at point [0.] (axis 0): it is not "
        "inside the domain"
    )


def test_grid_near_edge_shrinks_steps_with_one_warning():
    dom = wm.BoxDomain((0.0,), (1e-4,))
    can = wm.canonicalize(wm.telegraph(L="exp(2000*x)", C="1", domain=dom))
    g = wm.Grid(dom, (16,))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        Vg = can.V.on_grid(g.axes)
    assert len(rec) == 1
    assert str(rec[0].message).startswith("finite-difference step shrunk to 2.941e-06")
    assert np.abs(Vg).max() > 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, x in enumerate(g.axes[0]):
            assert np.array_equal(Vg[i], can.V([x]))


# L = x - 0.05 is positive at every point the construction probe samples, but
# not below x = 0.05.  The messages pin the exact " (E at <x>)" context.
_NON_SPD = "matrix is not positive definite: smallest eigenvalue "


@pytest.mark.parametrize("call, error, message", [
    (lambda can: can.A[0]([0.03]), MatrixError,
     _NON_SPD + "-2.000000e-02 (E at [0.03])"),
    (lambda can: can.A[0].on_grid((np.array([0.5, 0.03]),)), MatrixError,
     _NON_SPD + "-2.000000e-02 (E at [0.03])"),
    (lambda can: can.A[0](np.array([0.05000000000000001])), SingularMatrixError,
     "matrix is numerically singular: eigenvalue 6.938894e-18 below 1e-14 of norm "
     "1.000000e+00 (E at [0.05])"),
    (lambda can: can.V(np.array([0.05])), MatrixError,
     _NON_SPD + "0.000000e+00 (E at [0.05])"),
    (lambda can: can.V(np.array([0.050005])), MatrixError,
     _NON_SPD + "-5.000000e-06 (E at [0.049995])"),
], ids=["A", "A-grid", "A-singular", "V", "V-gradient"])
def test_canonical_point_error_names_the_point(call, error, message):
    can = wm.canonicalize(wm.telegraph(L="x - 0.05", C="1"))
    with pytest.raises(error) as info:
        call(can)
    assert type(info.value) is error
    assert str(info.value) == message


def hide_structure(sysm):
    """The same system with E behind a callable, so it is not known to be diagonal."""
    return dataclasses.replace(sysm, E=wm.FuncMatrixField(sysm.E, sysm.k))


# The 2-D counterparts of the cases above, on a Maxwell weight diag(eps, eps,
# eps, 1, 1, 1): the diagonal path must fail where the eigendecomposition
# path fails, with the same message.  Every construction probe point has
# x > 0.05, so both weights build.
@pytest.mark.parametrize("eps, x, error, message", [
    ("x - 0.05", 0.03, MatrixError, _NON_SPD + "-2.000000e-02 (E at [0.03 0.5 ])"),
    ("x - 0.05", 0.05000000000000001, SingularMatrixError,
     "matrix is numerically singular: eigenvalue 6.938894e-18 below 1e-14 of norm "
     "1.000000e+00 (E at [0.05 0.5 ])"),
    ("1/(x - 0.05)", 0.05, MatrixError,
     "matrix has non-finite entries (E at [0.05 0.5 ])"),
], ids=["non-spd", "singular", "non-finite"])
def test_diagonal_weight_point_error_names_the_point(eps, x, error, message):
    sysm = wm.maxwell_isotropic(eps, "1", domain=UNIT_BOX_2)
    assert sysm.E.is_diagonal
    axes = (np.array([0.5, x]), np.array([0.5]))
    for s in (sysm, hide_structure(sysm)):
        with pytest.raises(error) as info:
            wm.canonicalize(s).A[0].on_grid(axes)
        assert type(info.value) is error
        assert str(info.value) == message


_OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]])


# A diagonal weight is sampled and checked as its diagonals alone; it must be
# rejected where the same weight behind a callable is, with the same message
# naming the same first failing sample in C order.  Only the complex weight
# fails at the first sample point or grid node of the checks below.
@pytest.mark.parametrize("cells", [
    ["exp(1000*x)", "exp(1000*x)"],
    ["1", "(x - 0.2)*(x - 0.4) + 1e-3"],
    ["1e-12*((x - 0.3)^2 + 1e-6)", "1 + y"],
    [1.0 + 1e-3j, "1 + x"],
], ids=["non-finite", "non-positive", "singular", "complex"])
def test_bad_diagonal_weight_fails_as_the_general_path_fails(cells):
    E = wm.ExprMatrixField([[cells[0], 0.0], [0.0, cells[1]]])
    assert E.is_diagonal
    sysm = wm.CoefficientSystem(domain=UNIT_BOX_2, k=2, E=E,
                                A=(wm.ConstMatrixField(_OFFDIAG), wm.ConstMatrixField(np.eye(2))),
                                V=wm.ConstMatrixField(np.zeros((2, 2))))
    hidden = hide_structure(sysm)
    report = wm.validate_system(sysm, samples=64)
    assert not report.ok and report.issues == wm.validate_system(hidden, samples=64).issues
    probes = []
    for s in (sysm, hidden):
        with pytest.raises(ValidationError) as info:
            systems._spd_probe(UNIT_BOX_2, (), s.E, count=16)
        probes.append(str(info.value))
    assert probes == [report.issues[0]] * 2
    grid = wm.Grid(UNIT_BOX_2, (16, 16))
    failures = []
    for s in (sysm, hidden):
        with pytest.raises(MatrixError) as info:
            wm.VelocityField.from_system(s, grid)
        failures.append((type(info.value), str(info.value)))
    assert failures[0] == failures[1]
    everywhere = isinstance(cells[0], complex)
    first = wm.dsl.point_where(systems._sample_points(UNIT_BOX_2, 1), np.ones(1, dtype=bool))
    assert (f"(E at {first})" in report.issues[0]) == everywhere
    node = f"(E at {grid.node_coords((0, 0))})"
    assert failures[0][1].endswith(node) == everywhere


_CUSTOM_E = [["2 + x", "0.3*x*y", "0.1"],
             ["0.3*x*y", "1 + y^2", "0.2*sin(x)"],
             ["0.1", "0.2*sin(x)", "1.5 + 0.5*x"]]


# A point and a grid node take E^{-1/2} from the same kernel, so a weight that
# is not diagonal gets the same bits at every node either way.
@pytest.mark.parametrize("make, shape", [
    (lambda: wm.elastic_isotropic(rho="1 + x", K="2 + sin(3*x)", mu="1 + 0.5*x",
                                  domain=wm.BoxDomain((0.0,), (1.0,))).E, (33,)),
    (lambda: elastic_isotropic_variable().E, (12, 13)),
    (lambda: wm.elastic_isotropic(rho="1 + x*z", K="2 + y", mu="1 + 0.5*x*y",
                                  domain=UNIT_BOX_3).E, (5, 6, 7)),
    (lambda: maxwell_anisotropic_variable().E, (16, 17)),
    (lambda: wm.ExprMatrixField(_CUSTOM_E), (12, 11)),
], ids=["elastic-1d", "elastic-2d", "elastic-3d", "maxwell_anisotropic", "custom"])
def test_point_and_grid_inverse_square_roots_agree(make, shape):
    E = make()
    assert not E.is_diagonal
    axes = tuple(np.linspace(0.05, 0.95, n) for n in shape)
    R = systems._inv_sqrt(E, tuple(np.meshgrid(*axes, indexing="ij", sparse=True)))
    for idx in np.ndindex(shape):
        x = np.array([ax[i] for ax, i in zip(axes, idx)])
        assert spd_inv_sqrt(E(x)).tobytes() == R[idx].tobytes(), idx


# -- validation -------------------------------------------------------------

def test_validate_passes_builtins():
    for sysm in (
        wm.telegraph(L="1 + 0.5*sin(6*x)", C="2"),
        wm.maxwell_isotropic(eps="1 + x^2", domain=UNIT_BOX_3),
        wm.elastic_isotropic(domain=UNIT_BOX_3),
        wm.dirac_free(),
    ):
        rep = wm.validate_system(sysm, samples=32)
        assert rep.ok, rep.issues


def test_validate_flags_nonhermitian_with_entry_pair():
    bad = wm.CoefficientSystem(
        domain=wm.BoxDomain((0.0,), (1.0,)),
        k=2,
        E=wm.ConstMatrixField(np.eye(2)),
        A=(wm.FuncMatrixField(lambda x: np.array([[0.0, 1.0], [0.0, 0.0]]), 2),),
        V=wm.ConstMatrixField(np.zeros((2, 2))),
    )
    rep = wm.validate_system(bad, samples=8)
    assert not rep.ok
    assert "(1, 2)" in rep.issues[0]


def test_validate_flags_indefinite_weight():
    bad = wm.CoefficientSystem(
        domain=wm.BoxDomain((0.0,), (1.0,)),
        k=2,
        E=wm.ConstMatrixField(np.diag([1.0, -1.0])),
        A=(wm.ConstMatrixField(np.zeros((2, 2))),),
        V=wm.ConstMatrixField(np.zeros((2, 2))),
    )
    rep = wm.validate_system(bad, samples=8)
    assert not rep.ok
    assert any("positive definite" in s for s in rep.issues)


def test_validate_report_prints_summary():
    rep = wm.validate_system(wm.telegraph(), samples=8)
    text = str(rep)
    assert "PASS" in text and "8 sample points" in text


@st.composite
def constant_weights(draw):
    """Q diag(w) Q^T + s K, k from 2 to 4: Q orthogonal, the smallest of w from
    1e-16 to 1e-12 (log-uniform), the others from 0.5 to 2, and s K a skew
    perturbation with ||K|| = 1 and s from 0 to 3e-13."""
    k = draw(st.integers(2, 4))
    q, _ = np.linalg.qr(draw(arrays(np.float64, (k, k), elements=st.floats(-1.0, 1.0))))
    w = [10.0 ** draw(st.floats(-16.0, -12.0))] + draw(
        st.lists(st.floats(0.5, 2.0), min_size=k - 1, max_size=k - 1))
    g = draw(arrays(np.float64, (k, k), elements=st.floats(-1.0, 1.0)))
    skew = g - g.T
    skew /= max(np.linalg.norm(skew), 1e-300)
    return (q * w) @ q.T + draw(st.floats(0.0, 3e-13)) * skew


# The validate_system docstring's promise: a system that passes is accepted
# wherever it is sampled, and one the kernels reject does not pass.
@settings(derandomize=True, database=None, deadline=None)
@given(constant_weights())
def test_validation_passes_exactly_when_the_canonical_transform_succeeds(E):
    k = E.shape[0]
    sysm = wm.CoefficientSystem(
        domain=wm.BoxDomain((0.0,), (1.0,)), k=k, E=wm.ConstMatrixField(E),
        A=(wm.ConstMatrixField(np.ones((k, k))),), V=wm.ConstMatrixField(np.zeros((k, k))))
    coords = systems._sample_points(sysm.domain, 8)
    try:
        systems.canonical_A(sysm, coords)
        accepted = True
    except MatrixError:
        accepted = False
    assert wm.validate_system(sysm, samples=8).ok == accepted


def test_construction_checks_the_weight_after_its_parts():
    # eps = 1e-15 and mu = 1 each pass; the weight blockdiag(eps, mu) is singular
    with pytest.raises(ValidationError) as info:
        wm.maxwell_isotropic("1e-15", "1", domain=UNIT_BOX_2)
    assert str(info.value) == ("matrix is numerically singular: eigenvalue 1.000000e-15 "
                               "below 1e-14 of norm 1.000000e+00 (E at [0.5        0.33333333])")


def test_positivity_probe_evaluates_each_coefficient_once(monkeypatch):
    calls = []
    eval_expr = systems.dsl.eval_expr
    monkeypatch.setattr(systems.dsl, "eval_expr",
                        lambda *args, **kw: calls.append(args[0]) or eval_expr(*args, **kw))
    with pytest.raises(ValidationError) as info:
        wm.telegraph(L="x - 0.3", C="2")
    assert str(info.value) == "L and C must be positive: got -0.05 at sampled point [0.25]"
    assert len(calls) == 1
    wm.telegraph(L="1 + x", C="2")
    assert len(calls) == 3


def test_system_dimension_mismatch():
    with pytest.raises(ValueError, match="one first-order coefficient field per axis"):
        wm.CoefficientSystem(
            domain=wm.BoxDomain((0.0, 0.0), (1.0, 1.0)),
            k=2,
            E=wm.ConstMatrixField(np.eye(2)),
            A=(wm.ConstMatrixField(np.zeros((2, 2))),),
            V=wm.ConstMatrixField(np.zeros((2, 2))),
        )
