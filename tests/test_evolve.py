import dataclasses
import gc
import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from scipy import sparse

import wavemetric as wm
from wavemetric import evolve as ev
from wavemetric import systems
from wavemetric.errors import InstabilityError, ValidationError

from evolve_oracle import full_evolution


def _central_diff(values: np.ndarray, axis: int, coeffs) -> np.ndarray:
    """Antisymmetric central difference with zero exterior values."""
    out = np.zeros_like(values)
    for m, c in enumerate(coeffs, start=1):
        fwd = [slice(None)] * values.ndim
        bwd = [slice(None)] * values.ndim
        fwd[axis] = slice(m, None)
        bwd[axis] = slice(None, -m)
        out[tuple(bwd)] += c * values[tuple(fwd)]
        out[tuple(fwd)] -= c * values[tuple(bwd)]
    return out


def unit_telegraph():
    return wm.telegraph("1", "1")


def margin_supported(rng, grid, k, margin=4):
    shape = grid.shape + (k,)
    arr = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for ax in range(grid.d):
        sl = [slice(None)] * (grid.d + 1)
        sl[ax] = slice(0, margin)
        arr[tuple(sl)] = 0.0
        sl[ax] = slice(-margin, None)
        arr[tuple(sl)] = 0.0
    return arr


def energy_ip(sysm, grid, a, b):
    E = sysm.E.on_grid(grid.axes)
    w = grid.trapezoid_weights()
    return complex((w * np.einsum("...a,...ab,...b->...", np.conj(a), E, b)).sum())


# -- operator ---------------------------------------------------------------

def test_apply_zero_state():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (32,))
    st = ev.WaveState(grid, np.zeros((32, 2)))
    assert np.all(ev.apply_operator(sysm, st) == 0.0)


@pytest.mark.parametrize("order", [2, 4])
def test_plane_wave_dispersion(order):
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (256,))
    x = grid.axes[0]
    om = 2 * math.pi * 5
    psi = np.exp(1j * om * x)[:, None] * np.array([1.0, 1.0])
    out = ev.apply_operator(sysm, ev.WaveState(grid, psi), order=order)
    h = grid.spacing[0]
    if order == 2:
        om_h = math.sin(om * h) / h
    else:
        om_h = (8 * math.sin(om * h) - math.sin(2 * om * h)) / (6 * h)
    s = order // 2
    inner = slice(s, -s)
    assert np.abs(out[inner] - om_h * psi[inner]).max() <= 1e-12 * abs(om_h)


def test_constant_coefficient_operator_is_central_difference():
    # with E = I and constant A the operator is exactly -i A D
    sysm = wm.maxwell_isotropic("1", "1", domain=wm.BoxDomain((0.0,) * 3, (1.0,) * 3))
    grid = wm.Grid(sysm.domain, (8, 8, 8))
    rng = np.random.default_rng(11)
    psi = rng.standard_normal((8, 8, 8, 6)) + 1j * rng.standard_normal((8, 8, 8, 6))
    out = ev.apply_operator(sysm, ev.WaveState(grid, psi))
    want = np.zeros_like(psi)
    for j, A in enumerate(sysm.A):
        dv = _central_diff(psi, j, [0.5 / grid.spacing[j]])
        want += -1j * np.einsum("ab,...b->...a", A.mat.astype(complex), dv)
    assert np.abs(out - want).max() <= 1e-13 * np.abs(want).max()


def test_operator_rejects_mismatched_grid():
    sysm = unit_telegraph()
    other = wm.Grid(wm.BoxDomain((0.0,), (2.0,)), (32,))
    with pytest.raises(ValidationError, match="domain"):
        ev.DiscreteOperator(sysm, other)


def test_operator_rejects_closure_grid():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (32,), interior=False)
    with pytest.raises(ValidationError, match="interior"):
        ev.DiscreteOperator(sysm, grid)


def reference_apply(sysm, grid, order, values):
    """E^{-1}[-(i/2) sum_j (A^j D_j + D_j A^j) + V] psi from whole-array differences."""
    def field(M):
        return np.asarray(M.on_grid(grid.axes), dtype=complex)

    acc = np.einsum("...ab,...b->...a", field(sysm.V), values)
    for j, A in enumerate(sysm.A):
        coeffs = [c / grid.spacing[j] for c in ev._DIFF_COEFFS[order]]
        aj = field(A)
        acc += -0.5j * (
            np.einsum("...ab,...b->...a", aj, _central_diff(values, j, coeffs))
            + _central_diff(np.einsum("...ab,...b->...a", aj, values), j, coeffs)
        )
    return np.einsum("...ab,...b->...a", np.linalg.inv(field(sysm.E)), acc)


def _box(d):
    return wm.BoxDomain((0.0,) * d, (1.0,) * d)


def massive_dirac():
    m = "1 + x*y - z"
    mass = [[m if a == b else 0 for b in range(4)] for a in range(4)]
    mass[2][2] = mass[3][3] = f"-({m})"
    return wm.CoefficientSystem(
        domain=_box(3), k=4, E=wm.ConstMatrixField(np.eye(4)),
        A=wm.dirac_free().A, V=wm.ExprMatrixField(mass),
    )


REFERENCE_CASES = {
    # constant A, diagonal E, V = 0
    "telegraph-1d": (wm.telegraph("1 + 0.5*x", "2 - x"), (48,)),
    "maxwell-2d": (wm.maxwell_isotropic("1 + x*y", "2 - x", domain=_box(2)), (12, 14)),
    "maxwell-3d": (wm.maxwell_isotropic("1 + x*y", "2 - z", domain=_box(3)), (8, 9, 10)),
    # variable A with E = I and a non-zero V from the canonical transform
    "canonical-telegraph-1d": (wm.canonicalize(wm.telegraph("1 + 0.5*x", "2 - x")), (48,)),
    "canonical-maxwell-2d": (
        wm.canonicalize(wm.maxwell_isotropic("1 + x*y", "2 - x", domain=_box(2))), (12, 14)
    ),
    "canonical-maxwell-3d": (
        wm.canonicalize(wm.maxwell_isotropic("1 + x*y", "2 - z", domain=_box(3))), (8, 9, 10)
    ),
    # full (non-diagonal) E
    "elastic-1d": (wm.elastic_isotropic("1 + x", "1", "0.3", domain=_box(1)), (40,)),
    "elastic-2d": (wm.elastic_isotropic("1 + x", "1 + y", "0.3", domain=_box(2)), (12, 14)),
    "elastic-3d": (wm.elastic_isotropic("1 + x", "1 + y*z", "0.3", domain=_box(3)), (8, 9, 10)),
    # complex A and a variable mass term V
    "massive-dirac-3d": (massive_dirac(), (8, 9, 10)),
}


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_operator_matches_reference_formula(case, order):
    sysm, shape = REFERENCE_CASES[case]
    grid = wm.Grid(sysm.domain, shape)
    rng = np.random.default_rng(21)
    psi = rng.standard_normal(shape + (sysm.k,)) + 1j * rng.standard_normal(shape + (sysm.k,))
    got = ev.DiscreteOperator(sysm, grid, order).apply(psi)
    want = reference_apply(sysm, grid, order, psi)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_weighted_operator_is_hermitian(case, order):
    # blockdiag(E) Op = -(i/2) sum_j (A^j D_j + D_j A^j) + V, boundary rows included
    sysm, shape = REFERENCE_CASES[case]
    grid = wm.Grid(sysm.domain, shape)
    op = ev.DiscreteOperator(sysm, grid, order)
    E = np.broadcast_to(sysm.E.on_grid(grid.axes), shape + (sysm.k, sysm.k))
    H = sparse.block_diag(E.reshape(-1, sysm.k, sysm.k), format="csr") @ op.matrix
    assert abs(H - H.conj().T).max() <= 1e-13 * abs(H).max()


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_generator_is_real_except_for_dirac(case, order):
    # G = -i Op is real for real E and A with V zero or purely imaginary
    sysm, shape = REFERENCE_CASES[case]
    grid = wm.Grid(sysm.domain, shape)
    G = ev.DiscreteOperator(sysm, grid, order).generator
    assert G.dtype == (np.complex128 if case == "massive-dirac-3d" else np.float64)
    rng = np.random.default_rng(22)
    psi = rng.standard_normal(shape + (sysm.k,)) + 1j * rng.standard_normal(shape + (sysm.k,))
    got = ((1j * G) @ psi.reshape(-1)).reshape(psi.shape)
    want = reference_apply(sysm, grid, order, psi)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def hide_structure(sysm):
    """The same system with E behind a callable, so it is not known to be diagonal."""
    return dataclasses.replace(sysm, E=wm.FuncMatrixField(sysm.E, sysm.k))


# diagonal weights, compared with the same weight taken through the general path
STRUCTURE_CASES = {
    "telegraph-256": (wm.telegraph("1 + 0.5*x", "2 - x"), (256,)),
    "maxwell-32x32": (wm.maxwell_isotropic("1 + x*y", "2 - x", domain=_box(2)), (32, 32)),
    "maxwell-8x8x8": (wm.maxwell_isotropic("1 + x*y", "2 - z", domain=_box(3)), (8, 8, 8)),
}


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES) + sorted(STRUCTURE_CASES))
def test_generator_does_not_depend_on_knowing_the_weight_is_diagonal(case, order):
    sysm, shape = {**REFERENCE_CASES, **STRUCTURE_CASES}[case]
    grid = wm.Grid(sysm.domain, shape)
    got = ev.DiscreteOperator(sysm, grid, order).generator
    want = ev.DiscreteOperator(hide_structure(sysm), grid, order).generator
    assert got.dtype == want.dtype
    for part in ("indptr", "indices", "data"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


@pytest.mark.parametrize("case", sorted(STRUCTURE_CASES))
def test_diagonal_weight_samples_match_the_general_path(case):
    sysm, shape = STRUCTURE_CASES[case]
    hidden = hide_structure(sysm)
    assert sysm.E.is_diagonal and not hidden.E.is_diagonal
    grid = wm.Grid(sysm.domain, shape)
    coords = tuple(np.meshgrid(*grid.axes, indexing="ij", sparse=True))
    R = systems._inv_sqrt(sysm.E, coords)
    assert R.tobytes() == systems._inv_sqrt(hidden.E, coords).tobytes()
    for B, want in zip(systems.canonical_A(sysm, coords), systems.canonical_A(hidden, coords)):
        # equal values; a zero entry may differ in sign, since the matrix
        # products of the general path sum from +0
        assert B.dtype == want.dtype and np.array_equal(B, want)
    M = wm.VelocityField.from_system(sysm, grid).M_samples
    assert M.tobytes() == wm.VelocityField.from_system(hidden, grid).M_samples.tobytes()
    op, ref = ev.DiscreteOperator(sysm, grid), ev.DiscreteOperator(hidden, grid)
    assert op.E_samples.shape == shape + (sysm.k,)
    rng = np.random.default_rng(23)
    real = rng.standard_normal(shape + (sysm.k,))
    for values in (real, real + 1j * rng.standard_normal(real.shape)):
        assert op.density(values).tobytes() == ref.density(values).tobytes()
        state = ev.WaveState(grid, values)
        assert ev.energy(sysm, state) == ev.energy(hidden, state)


def test_weight_must_be_positive_on_the_grid():
    # eps = x - 0.05 passes the construction probe but not the node at x = 1/33
    sysm = wm.maxwell_isotropic("x - 0.05", "1", domain=_box(2))
    assert sysm.E.is_diagonal
    for s in (sysm, hide_structure(sysm)):
        with pytest.raises(ValidationError, match="weight field must be positive definite on the grid"):
            ev.DiscreteOperator(s, wm.Grid(sysm.domain, (32, 32)))


@pytest.mark.parametrize("order", [2, 4])
def test_component_divergence_matches_oracle(order):
    sysm = wm.maxwell_isotropic("1", "1", domain=_box(3))
    grid = wm.Grid(sysm.domain, (8, 9, 10))
    rng = np.random.default_rng(41)
    psi = rng.standard_normal((8, 9, 10, 6)) + 1j * rng.standard_normal((8, 9, 10, 6))
    for comps in ([0, 1, 2], [5, 3, 4]):
        want = sum(
            _central_diff(psi[..., c], j, [w / grid.spacing[j] for w in ev._DIFF_COEFFS[order]])
            for j, c in enumerate(comps)
        )
        got = ev.component_divergence(ev.WaveState(grid, psi), comps, order=order)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("comps, order, message", [
    ([0, 1, 2], 3, "difference order must be one of [2, 4]"),
    ([0, 7, 2], 2, "component 7 is outside 0..5 for a 6-component state"),
    ([-1, 1, 2], 2, "component -1 is outside 0..5 for a 6-component state"),
], ids=["order", "component-above", "component-negative"])
def test_component_divergence_rejects_bad_arguments(comps, order, message):
    grid = wm.Grid(_box(3), (8, 8, 8))
    st = ev.WaveState(grid, np.zeros((8, 8, 8, 6), dtype=complex))
    with pytest.raises(ValueError) as info:
        ev.component_divergence(st, comps, order=order)
    assert str(info.value) == message


def test_import_and_apply_without_numba():
    code = (
        "import sys; sys.modules['numba'] = None\n"
        "import numpy as np, wavemetric as wm\n"
        "sysm = wm.telegraph('1', '1')\n"
        "grid = wm.Grid(sysm.domain, (32,))\n"
        "st = wm.gaussian_state(grid, [1.0, 0.0], [0.5], 0.05)\n"
        "print(np.abs(wm.apply_operator(sysm, st)).max() > 0)\n"
    )
    src = os.path.dirname(os.path.dirname(wm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "True"


@pytest.mark.parametrize("order", [2, 4])
def test_discrete_symmetry(order):
    cases = [
        (wm.telegraph("1 + 0.5*x", "2 - x"), (64,)),
        (wm.canonicalize(wm.telegraph("1 + 0.5*x", "2 - x")), (64,)),
        (
            wm.maxwell_isotropic(
                "1 + x*y", "2 - x", domain=wm.BoxDomain((0.0, 0.0), (1.0, 1.0))
            ),
            (16, 16),
        ),
    ]
    rng = np.random.default_rng(31)
    for sysm, shape in cases:
        grid = wm.Grid(sysm.domain, shape)
        op = ev.DiscreteOperator(sysm, grid, order)
        u = margin_supported(rng, grid, sysm.k)
        v = margin_supported(rng, grid, sysm.k)
        lhs = energy_ip(sysm, grid, u, op.apply(v))
        rhs = energy_ip(sysm, grid, op.apply(u), v)
        assert abs(lhs - rhs) <= 1e-11 * abs(lhs)


# -- energy and step size ---------------------------------------------------

def test_energy_constant_states():
    tg = wm.telegraph("2", "1")
    grid = wm.Grid(tg.domain, (64,), interior=False)
    st = ev.WaveState(grid, np.broadcast_to(np.array([1.0 + 0j, 0.0]), (64, 2)).copy())
    assert ev.energy(tg, st) == pytest.approx(2.0, rel=1e-14)

    el = wm.elastic_isotropic("1", "1", "0.3")
    g3 = wm.Grid(el.domain, (8, 8, 8), interior=False)
    comps = np.zeros(9)
    comps[6] = 1.0
    st = ev.WaveState(g3, np.broadcast_to(comps, (8, 8, 8, 9)).copy())
    assert ev.energy(el, st) == pytest.approx(1.0, rel=1e-13)


def test_energy_zero_state():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (16,))
    assert ev.energy(sysm, ev.WaveState(grid, np.zeros((16, 2)))) == 0.0


def test_cfl_dt_frozen_values():
    tg = unit_telegraph()
    grid = wm.Grid(tg.domain, (999,))  # h = 1e-3
    assert ev.cfl_dt(tg, grid, 0.4) == pytest.approx(0.4e-3 / math.sqrt(2), rel=1e-12)

    mx = wm.maxwell_isotropic("1", "1", domain=wm.BoxDomain((0.0,) * 3, (0.09,) * 3))
    g3 = wm.Grid(mx.domain, (8, 8, 8))  # h = 1e-2
    assert ev.cfl_dt(mx, g3, 0.4) == pytest.approx(0.4e-2 / 2.0, rel=1e-12)


def test_cfl_dt_scaling_with_a():
    tg = unit_telegraph()
    grid = wm.Grid(tg.domain, (64,))
    doubled = wm.CoefficientSystem(
        domain=tg.domain, k=2, E=tg.E,
        A=(wm.ConstMatrixField(2.0 * tg.A[0].mat),), V=tg.V,
    )
    assert ev.cfl_dt(doubled, grid, 0.4) == pytest.approx(
        0.5 * ev.cfl_dt(tg, grid, 0.4), rel=1e-12
    )


def test_cfl_dt_rejects_zero_speed():
    tg = unit_telegraph()
    zero = wm.CoefficientSystem(
        domain=tg.domain, k=2, E=tg.E,
        A=(wm.ConstMatrixField(np.zeros((2, 2))),), V=tg.V,
    )
    grid = wm.Grid(tg.domain, (64,))
    with pytest.raises(ValueError, match="vanishes"):
        ev.cfl_dt(zero, grid, 0.4)
    with pytest.raises(ValueError, match="cfl"):
        ev.cfl_dt(tg, grid, 1.5)


# -- support box ------------------------------------------------------------

def test_support_box_gaussian_halfwidth():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (1024,))
    st = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.02)
    (lo, hi), = ev.support_box(sysm, st, threshold=1e-8)
    half = 0.1213941703508117  # 0.02 * sqrt(16 ln 10)
    h = grid.spacing[0]
    assert lo == pytest.approx(0.5 - half, abs=1.5 * h)
    assert hi == pytest.approx(0.5 + half, abs=1.5 * h)


def test_support_box_indicator_bump():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (256,))
    x = grid.axes[0]
    vals = np.zeros((256, 2), dtype=complex)
    vals[(x >= 0.4) & (x <= 0.6), 0] = 1.0
    (lo, hi), = ev.support_box(sysm, ev.WaveState(grid, vals), threshold=0.5)
    h = grid.spacing[0]
    assert abs(lo - 0.4) <= h and abs(hi - 0.6) <= h


def test_support_box_zero_state_and_bad_threshold():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (16,))
    zero = ev.WaveState(grid, np.zeros((16, 2)))
    assert ev.support_box(sysm, zero) is None
    st = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.1)
    with pytest.raises(ValueError, match="threshold"):
        ev.support_box(sysm, st, threshold=2.0)


# -- integration ------------------------------------------------------------

def test_integrate_zero_state():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (32,))
    fin, log = ev.integrate(sysm, ev.WaveState(grid, np.zeros((32, 2))), 0.1)
    assert np.all(fin.values == 0.0)
    assert all(e == 0.0 for e in log.energies)
    assert all(b is None for b in log.boxes)


def test_transport_support_translation():
    # d'Alembert: the (1,0) pulse splits and both support edges move at c = 1
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (1024,))
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.02)
    (lo0, hi0), = ev.support_box(sysm, pulse)
    fin, log = ev.integrate(sysm, pulse, 0.3, order=4)
    assert not log.contaminated
    (lo, hi), = ev.support_box(sysm, fin, ref_density=log.ref_density)
    h = grid.spacing[0]
    assert lo == pytest.approx(lo0 - 0.3, abs=2 * h)
    assert hi == pytest.approx(hi0 + 0.3, abs=2 * h)
    # absolute positions: 0.5 -/+ (T + tail halfwidth)
    assert lo == pytest.approx(0.5 - 0.3 - 0.1214, abs=0.01)
    assert hi == pytest.approx(0.5 + 0.3 + 0.1214, abs=0.01)


def test_energy_drift_and_positive_entries():
    sysm = wm.telegraph("1 + 0.25*sin(pi*x/2)", "1", domain=wm.BoxDomain((0.0,), (4.0,)))
    grid = wm.Grid(sysm.domain, (512,))
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [2.0], 0.05)
    fin, log = ev.integrate(sysm, pulse, 0.5)
    assert all(e > 0 for e in log.energies)
    assert abs(log.energies[-1] / log.energies[0] - 1.0) <= 1e-6
    assert fin.t == pytest.approx(0.5, rel=1e-12)


def power_law_telegraph():
    coeff = "sin(pi*x)^(-2.0)"
    sysm = wm.telegraph(coeff, coeff)
    return sysm, wm.Grid(sysm.domain, (2048,))


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
def test_imaginary_pulse_evolves_as_i_times_real_pulse(method):
    # a real generator steps a real pulse in float64 and an imaginary one in
    # complex128; both runs must agree bit for bit up to the factor i
    sysm, grid = power_law_telegraph()
    real, log_re = ev.integrate(sysm, ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.02),
                                0.02, method=method)
    imag, log_im = ev.integrate(sysm, ev.gaussian_state(grid, [1j, 0.0], [0.5], 0.02),
                                0.02, method=method)
    assert log_re.steps > 10
    assert imag.values.imag.tobytes() == real.values.real.tobytes()
    assert np.all(imag.values.real == 0.0)
    assert log_im.energies == log_re.energies


def test_complex_pulse_on_a_real_system_steps_in_float64(monkeypatch):
    # the real and imaginary parts step side by side as float64 pairs and
    # evolve exactly as two separate real runs
    sysm, grid = power_law_telegraph()

    def run(components):
        return ev.integrate(sysm, ev.gaussian_state(grid, components, [0.5], 0.02), 0.02)[0]

    re, im = run([1.0, 0.0]), run([0.0, 1.0])
    seen = []
    matvec = ev._matvec
    monkeypatch.setattr(ev, "_matvec", lambda m, x: seen.append(x.dtype) or matvec(m, x))
    both = run([1.0, 1j])
    assert len(seen) > 40 and set(seen) == {np.dtype(np.float64)}
    assert both.values.real.tobytes() == re.values.real.tobytes()
    assert both.values.imag.tobytes() == im.values.real.tobytes()


def _rk4_stage_step(op, values, dt):
    """Classic RK4 in stage form: the oracle for the stepper."""
    k1 = op.derivative(values)
    k2 = op.derivative(values + (0.5 * dt) * k1)
    k3 = op.derivative(values + (0.5 * dt) * k2)
    k4 = op.derivative(values + dt * k3)
    return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _maxwell_2d():
    return wm.maxwell_isotropic("1 + 0.4*sin(6*x + 1)*cos(4*y)", "1",
                                domain=wm.BoxDomain((0.0, 0.0), (1.0, 1.0)))


STEP_CASES = {
    # system, grid shape, pulse components, pulse centre and width, order
    "telegraph-1d-order-2": (lambda: power_law_telegraph()[0], (2048,), [1.0, 0.0], [0.5], 0.1, 2),
    "telegraph-1d-order-4": (lambda: power_law_telegraph()[0], (2048,), [1.0, 0.0], [0.5], 0.1, 4),
    "complex-pulse-real-1d": (lambda: power_law_telegraph()[0], (2048,), [1.0, 1j], [0.5], 0.1, 2),
    "maxwell-2d": (_maxwell_2d, (48, 48), [0, 0, 1.0, 0, 0, 0], [0.5, 0.5], 0.1, 2),
    "dirac-3d": (wm.dirac_free, (12, 12, 12), [1.0, 0, 0, 1j], [0.3, 0.0, -0.2], 0.4, 2),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_rk4_step_matches_the_stage_form(case):
    # the stepper evaluates RK4's stability polynomial (one assembled matrix
    # in 1-D, four Horner products otherwise), which equals the stage form
    # up to rounding
    factory, shape, components, center, sigma, order = STEP_CASES[case]
    sysm = factory()
    grid = wm.Grid(sysm.domain, shape)
    pulse = ev.gaussian_state(grid, components, center, sigma)
    op, dt, _, states = ev._evolution(sysm, pulse, 1.0, 0.4, 1e-8, "rk4", order, None)
    next(states)
    _, _, stepped = next(states)
    want = _rk4_stage_step(op, pulse.values, dt)
    assert (op.generator.dtype == np.complex128) == (case == "dirac-3d")
    assert np.abs(stepped - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("case, products, nnz", [
    ("telegraph-1d-order-2", 1, 36824),
    ("telegraph-1d-order-4", 1, 121884),
    ("maxwell-2d", 4, None),
])
def test_rk4_step_products(monkeypatch, case, products, nnz):
    # a 1-D step is one product with R(dt G), which stays banded (4.5x G's
    # nonzeros at order 2, 7.4x at order 4); a 2-D step is four products with
    # the live block of G; every product takes a flat vector
    factory, shape, components, center, sigma, order = STEP_CASES[case]
    sysm = factory()
    grid = wm.Grid(sysm.domain, shape)
    op = ev.DiscreteOperator(sysm, grid, order)
    values = ev.gaussian_state(grid, components, center, sigma).values
    rows, G = ev._live_block(op.generator, sysm.k, values)
    seen = []
    matvec = ev._matvec
    monkeypatch.setattr(ev, "_matvec", lambda m, x: seen.append((m, x.shape)) or matvec(m, x))
    step = ev._rk4_propagator(G, ev.cfl_dt(sysm, grid, 0.4), grid.d)
    x = values.reshape(-1).real.copy() if rows is None else values.reshape(-1)[rows].real
    step(x)
    assert len(seen) == products
    assert all(xs == (G.shape[0],) for _, xs in seen)
    if nnz is None:
        # an Ez pulse reaches the TM block (Ez, Hx, Hy): half the rows and nonzeros
        assert all(m is G for m, _ in seen)
        assert op.generator.nnz == 36096 and G.nnz == 18048
        assert len(rows) == 3 * grid.node_count
        assert np.array_equal(rows.reshape(-1, 3) % 6, np.tile([2, 3, 4], (grid.node_count, 1)))
    else:
        assert rows is None and G is op.generator
        assert op.generator.nnz == {2: 8188, 4: 16372}[order]
        assert seen[0][0].nnz == nnz


def test_evolution_steps_real_systems_in_float64():
    sysm, grid = power_law_telegraph()
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.02)
    _, _, steps, states = ev._evolution(sysm, pulse, 0.002, 0.4, 1e-8, "rk4", 2, None)
    assert [v.dtype for _, _, v in states] == [np.float64] * (steps + 1)

    dirac = wm.dirac_free()
    grid = wm.Grid(dirac.domain, (12, 12, 12))
    pulse = ev.gaussian_state(grid, [1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0], 0.3)
    _, _, steps, states = ev._evolution(dirac, pulse, 0.1, 0.4, 1e-8, "rk4", 2, None)
    assert [v.dtype for _, _, v in states] == [np.complex128] * (steps + 1)


def _chain_1d():
    # components 0-1-2 coupled in a chain (a pulse in 0 reaches 2 through 1)
    # and component 3 transported on its own
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[1, 2] = a[2, 1] = 0.5
    a[3, 3] = 2.0
    return wm.CoefficientSystem(
        domain=wm.BoxDomain((0.0,), (1.0,)), k=4,
        E=wm.ExprMatrixField([["1 + 0.5*x", "0", "0", "0"], ["0", "1", "0", "0"],
                              ["0", "0", "2 - x", "0"], ["0", "0", "0", "1"]]),
        A=(wm.ConstMatrixField(a),), V=wm.ConstMatrixField(np.zeros((4, 4))),
    )


def _weighted_pair_1d():
    # A couples components 0 and 1 only, but the weight couples 0 and 2, so
    # G = E^{-1}(...) has entries in rows of component 2 and columns of
    # component 1 and none the other way round
    a = np.zeros((3, 3))
    a[0, 1] = a[1, 0] = 1.0
    return wm.CoefficientSystem(
        domain=wm.BoxDomain((0.0,), (1.0,)), k=3,
        E=wm.ConstMatrixField([[2.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 2.0]]),
        A=(wm.ConstMatrixField(a),), V=wm.ConstMatrixField(np.zeros((3, 3))),
    )


ORACLE_CASES = {
    # system, grid shape, pulse components, centre, width, order, method, T, live components
    "maxwell-2d-tm": (_maxwell_2d, (48, 48), [0, 0, 1.0, 0, 0, 0], [0.5, 0.5], 0.1, 2, "rk4",
                      0.1, 3),
    "maxwell-2d-te-tm": (_maxwell_2d, (48, 48), [1.0, 0, 1.0, 0, 0, 0.5], [0.5, 0.5], 0.1, 2,
                         "rk4", 0.1, 6),
    "maxwell-2d-midpoint": (_maxwell_2d, (48, 48), [0, 0, 1.0, 0, 0, 0], [0.5, 0.5], 0.1, 2,
                            "midpoint", 0.05, 3),
    "maxwell-2d-zero": (_maxwell_2d, (48, 48), [0, 0, 0, 0, 0, 0], [0.5, 0.5], 0.1, 2, "rk4",
                        0.05, 0),
    "maxwell-2d-negative-zero": (_maxwell_2d, (48, 48), [-0.0, -0.0, 1.0, 0, 0, -0.0],
                                 [0.5, 0.5], 0.1, 2, "rk4", 0.1, 3),
    "telegraph-1d-order-2": (lambda: power_law_telegraph()[0], (2048,), [1.0, 0.0], [0.5], 0.02,
                             2, "rk4", 0.02, 2),
    "telegraph-1d-order-4": (lambda: power_law_telegraph()[0], (2048,), [1.0, 0.0], [0.5], 0.02,
                             4, "rk4", 0.02, 2),
    "complex-pulse-real-1d": (lambda: power_law_telegraph()[0], (2048,), [1.0, 0.5j], [0.5],
                              0.02, 2, "rk4", 0.02, 2),
    "weighted-pair-1d": (_weighted_pair_1d, (256,), [0, 1.0, 0], [0.5], 0.05, 2, "rk4", 0.2, 3),
    "chain-1d": (_chain_1d, (256,), [1.0, 0, 0, 0], [0.5], 0.05, 4, "rk4", 0.2, 3),
    "chain-1d-complex-midpoint": (_chain_1d, (256,), [0, 0, 0, 0.5 + 1j], [0.5], 0.05, 2,
                                  "midpoint", 0.1, 1),
    "dirac-3d": (wm.dirac_free, (12, 12, 12), [1.0, 0, 0, 1j], [0.3, 0.0, -0.2], 0.4, 2, "rk4",
                 0.3, 4),
}


def _oracle_pulse(case):
    factory, shape, components, center, sigma, order, method, T, live = ORACLE_CASES[case]
    sysm = factory()
    grid = wm.Grid(sysm.domain, shape)
    pulse = ev.gaussian_state(grid, np.ones(len(components)), center, sigma)
    # components multiply the bump one by one so that -0 entries stay -0
    pulse = ev.WaveState(grid, pulse.values.real * np.array(components, dtype=complex))
    return sysm, grid, pulse, dict(method=method, order=order), T, live


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.filterwarnings("ignore:.*grid edge:UserWarning")
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_live_block_stepping_matches_the_full_generator_bit_for_bit(monkeypatch, case):
    # stepping the live block as a flat vector, in place, gives the bits of
    # stepping every component with the whole generator
    sysm, grid, pulse, kw, T, live = _oracle_pulse(case)
    op = ev.DiscreteOperator(sysm, grid, kw["order"])
    rows, G = ev._live_block(op.generator, sysm.k, pulse.values)
    assert (grid.node_count * sysm.k if rows is None else len(rows)) == live * grid.node_count
    if case == "maxwell-2d-negative-zero":
        assert np.signbit(pulse.values[..., [0, 1, 5]].real).all()
    probes = [tuple(n // 2 for n in grid.shape), tuple(3 * n // 4 for n in grid.shape),
              (0,) * grid.d]

    fin, log = ev.integrate(sysm, pulse, T, **kw)
    arrival = ev.arrival_time(sysm, pulse, T, probes, **kw)
    monkeypatch.setattr(ev, "_evolution", full_evolution)
    want_fin, want_log = ev.integrate(sysm, pulse, T, **kw)
    want_arrival = ev.arrival_time(sysm, pulse, T, probes, **kw)

    assert log.steps == want_log.steps > 3
    assert np.array_equal(_bits(fin.values), _bits(want_fin.values))
    assert _bits(log.energies).tolist() == _bits(want_log.energies).tolist()
    assert log.boxes == want_log.boxes
    assert _bits(log.max_abs).tolist() == _bits(want_log.max_abs).tolist()
    assert np.array_equal(_bits(arrival), _bits(want_arrival))
    if live < sysm.k:
        dead = np.ones(sysm.k, dtype=bool)
        if rows is not None:
            dead[np.unique(rows % sysm.k)] = False
        assert not np.signbit(fin.values[..., dead].real).any()
        assert not fin.values[..., dead].any()


def test_live_block_yields_states_that_later_steps_leave_alone():
    sysm, grid, pulse, kw, T, _ = _oracle_pulse("maxwell-2d-tm")
    _, _, steps, states = ev._evolution(sysm, pulse, T, 0.4, 1e-8, "rk4", 2, None)
    seen = [(v, v.copy()) for _, _, v in states]
    assert len(seen) == steps + 1
    assert all(np.array_equal(v, kept) for v, kept in seen)
    assert all(v.shape == pulse.values.shape for v, _ in seen)


def test_slow_ends_profile_conserves_energy():
    # speed sin^2(pi x) vanishing at both ends; short confinement-style run
    sysm = wm.telegraph("1/sin(pi*x)^2", "1/sin(pi*x)^2")
    grid = wm.Grid(sysm.domain, (512,))
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.03)
    fin, log = ev.integrate(sysm, pulse, 1.0)
    assert not log.contaminated
    assert abs(log.energies[-1] / log.energies[0] - 1.0) <= 1e-6


def test_midpoint_conserves_energy_to_roundoff():
    sysm = wm.telegraph("1 + 0.5*x", "2 - x")
    grid = wm.Grid(sysm.domain, (512,))
    pulse = ev.gaussian_state(grid, [1.0, 0.5], [0.5], 0.04)
    fin_m, log_m = ev.integrate(sysm, pulse, 0.3, method="midpoint")
    assert abs(log_m.energies[-1] / log_m.energies[0] - 1.0) <= 1e-12
    fin_r, _ = ev.integrate(sysm, pulse, 0.3, method="rk4")
    assert np.abs(fin_m.values - fin_r.values).max() <= 1e-3


def test_unitary_transform_consistency():
    base = wm.telegraph("1 + 0.25*x", "1", domain=wm.BoxDomain((0.0,), (2.0,)))
    grid = wm.Grid(base.domain, (3072,))
    can = wm.canonicalize(base)
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [1.0], 0.05)
    E = base.E.on_grid(grid.axes)
    w, U = np.linalg.eigh(E)
    ehalf = np.einsum("...ab,...b,...cb->...ac", U, np.sqrt(w), U)
    pulse_t = ev.WaveState(grid, np.einsum("...ab,...b->...a", ehalf, pulse.values))
    fin, log_a = ev.integrate(base, pulse, 0.3)
    fin_t, log_b = ev.integrate(can, pulse_t, 0.3)
    assert not (log_a.contaminated or log_b.contaminated)
    want = np.einsum("...ab,...b->...a", ehalf, fin.values)
    rel = np.abs(fin_t.values - want).max() / np.abs(want).max()
    assert rel <= 1e-6


def test_divergence_functional_preserved():
    mx = wm.maxwell_isotropic("1", "1")
    grid = wm.Grid(mx.domain, (24, 24, 24))
    r2 = ((grid.coords() - 0.5) ** 2).sum(axis=-1)
    bump = np.exp(-r2 / (2 * 0.08**2))
    vals = np.zeros(grid.shape + (6,), dtype=np.complex128)
    vals[..., 0] = _central_diff(bump, 1, [0.5 / grid.spacing[1]])
    vals[..., 1] = -_central_diff(bump, 0, [0.5 / grid.spacing[0]])
    st = ev.WaveState(grid, vals)
    assert np.abs(ev.component_divergence(st, [0, 1, 2])).max() <= 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # run outlives the box; harmless here
        fin, _ = ev.integrate(mx, st, 1.0)
    scale = np.abs(vals).max()
    assert np.abs(ev.component_divergence(fin, [0, 1, 2])).max() <= 1e-8 * scale
    assert np.abs(ev.component_divergence(fin, [3, 4, 5])).max() <= 1e-8 * scale


@pytest.mark.filterwarnings("ignore")
@pytest.mark.parametrize("factory, shape, components", [
    (unit_telegraph, (128,), [1.0, 0.0]),
    (_maxwell_2d, (24, 24), [0, 0, 1.0, 0, 0, 0]),
], ids=["1-d", "2-d"])
def test_instability_error_reports_step(factory, shape, components):
    # both step paths: the assembled 1-D step matrix and the 2-D Horner products
    sysm = factory()
    grid = wm.Grid(sysm.domain, shape)
    pulse = ev.gaussian_state(grid, components, [0.5] * grid.d, 0.05)
    stable = ev.cfl_dt(sysm, grid, 0.4)
    with pytest.raises(InstabilityError, match="step .*smaller cfl"):
        ev.integrate(sysm, pulse, 50.0, dt=40 * stable)


def test_contamination_warning_and_flag():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (128,))
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [0.7], 0.03)
    with pytest.warns(UserWarning, match="boundary-contaminated"):
        fin, log = ev.integrate(sysm, pulse, 0.3)
    assert log.contaminated


def test_initial_margin_warning():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (128,))
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [0.99], 0.03)
    with pytest.warns(UserWarning, match="initial support"):
        ev.integrate(sysm, pulse, 0.01)


def test_arrival_times():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (2047,))
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.0025)
    probes = [
        grid.nearest_node([0.501]),
        grid.nearest_node([0.3]),
        grid.nearest_node([0.05]),
    ]
    arr = ev.arrival_time(sysm, pulse, 0.3, probes, threshold=1e-3, order=4)
    assert arr[0] == 0.0
    assert 0.185 <= arr[1] <= 0.2  # front leads the center by the tail halfwidth
    assert math.isinf(arr[2])


def test_arrival_rejects_probes_outside_the_grid():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (256,))
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.05)
    for probe in [(-1,), (999,)]:
        with pytest.raises(ValueError, match=rf"probe \({probe[0]},\).*shape \(256,\)"):
            ev.arrival_time(sysm, pulse, 0.1, [(128,), probe])


def test_arrival_rejects_bad_threshold():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (64,))
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.05)
    for threshold in (0.0, 2.0):
        with pytest.raises(ValueError, match=r"support threshold must be in \(0, 1\)"):
            ev.arrival_time(sysm, pulse, 0.1, [(32,)], threshold=threshold)


def test_arrival_reports_start_time_for_probes_reached_at_start():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (255,))
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.05, t=1.0)
    arr = ev.arrival_time(sysm, pulse, 0.2, [grid.nearest_node([0.5]), grid.nearest_node([0.9])])
    assert arr[0] == 1.0
    assert 1.05 < arr[1] < 1.15  # the front reaches 0.9 at about t0 + 0.4 - 0.30


@pytest.mark.parametrize("run", [
    lambda sysm, pulse: ev.integrate(sysm, pulse, 0.05),
    lambda sysm, pulse: ev.arrival_time(sysm, pulse, 0.05, [(32,), (40,)]),
    lambda sysm, pulse: ev.apply_operator(sysm, pulse),
], ids=["integrate", "arrival_time", "apply_operator"])
def test_no_operator_outlives_its_run(monkeypatch, run):
    refs = []
    init = ev.DiscreteOperator.__init__

    def tracked(self, *args, **kwargs):
        refs.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ev.DiscreteOperator, "__init__", tracked)
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (64,))
    run(sysm, ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.05))
    gc.collect()
    assert len(refs) == 1
    assert refs[0]() is None


def test_arrival_never_earlier_than_eikonal_bound():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (2047,))
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.0025)
    probes = [grid.nearest_node([p]) for p in (0.35, 0.3, 0.25)]
    arr = ev.arrival_time(sysm, pulse, 0.3, probes, threshold=1e-3, order=4)
    fld = wm.VelocityField.from_system(sysm, grid)
    eik = wm.eikonal_arrival(grid, fld, [grid.nearest_node([0.5])])
    slack = 3 * grid.spacing[0] / math.sqrt(2.0)
    for p, a in zip(probes, arr):
        assert a >= eik.values[p] - slack


# -- state and log plumbing -------------------------------------------------

def test_wave_state_validation():
    grid = wm.Grid(wm.BoxDomain((0.0,), (1.0,)), (16,))
    with pytest.raises(ValidationError, match="shape"):
        ev.WaveState(grid, np.zeros((8, 2)))
    bad = np.zeros((16, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        ev.WaveState(grid, bad)


def test_integrate_argument_validation():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (32,))
    st = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.05)
    with pytest.raises(ValueError, match="method"):
        ev.integrate(sysm, st, 0.1, method="euler")
    with pytest.raises(ValueError, match="positive"):
        ev.integrate(sysm, st, -1.0)
    with pytest.raises(ValueError, match="order"):
        ev.apply_operator(sysm, st, order=3)


def _argument_check_cases():
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (32,))
    st = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.05)
    return {
        "components": lambda: ev.gaussian_state(grid, [[1.0, 0.0]], [0.5], 0.05),
        "center": lambda: ev.gaussian_state(grid, [1.0, 0.0], [0.5, 0.5], 0.05),
        "sigma": lambda: ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.0),
        "difference order": lambda: ev.apply_operator(sysm, st, order=3),
        "cfl must be": lambda: ev.cfl_dt(sysm, grid, 1.5),
        "support threshold": lambda: ev.support_box(sysm, st, threshold=2.0),
        "method": lambda: ev.integrate(sysm, st, 0.1, method="euler"),
        "support threshold must": lambda: ev.integrate(sysm, st, 0.1, support_threshold=0.0),
        "final time": lambda: ev.integrate(sysm, st, -1.0),
        "dt must": lambda: ev.integrate(sysm, st, 0.1, dt=-1.0),
        "does not index": lambda: ev.arrival_time(sysm, st, 0.1, [(1, 2)]),
        "lies outside": lambda: ev.arrival_time(sysm, st, 0.1, [(32,)]),
        "one component per axis": lambda: ev.component_divergence(st, [0, 1]),
        "is outside": lambda: ev.component_divergence(st, [2]),
    }


@pytest.mark.parametrize("message", sorted(_argument_check_cases()))
def test_argument_checks_raise_validation_error(message):
    with pytest.raises(ValidationError, match=message) as info:
        _argument_check_cases()[message]()
    assert type(info.value) is ValidationError and isinstance(info.value, ValueError)


def test_operator_rejects_non_finite_coefficients():
    # exp(1000 x) overflows past x = 0.71 in a block a pulse in component 0
    # never reaches; a run with an explicit dt used to step inf * 0 = NaN
    # there, and now no run starts
    a = [["0", "1", "0", "0"], ["1", "0", "0", "0"],
         ["0", "0", "0", "exp(1000*x)"], ["0", "0", "exp(1000*x)", "0"]]
    sysm = wm.CoefficientSystem(
        domain=wm.BoxDomain((0.0,), (1.0,)), k=4, E=wm.ConstMatrixField(np.eye(4)),
        A=(wm.ExprMatrixField(a),), V=wm.ConstMatrixField(np.zeros((4, 4))),
    )
    grid = wm.Grid(sysm.domain, (64,))
    pulse = ev.gaussian_state(grid, [1.0, 0, 0, 0], [0.3], 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # at node 44 (x = 45/65) the difference entry (A(x) + A(x + h)) / (4 h) overflows
        with pytest.raises(ValidationError, match=r"not finite at node \(44,\)$"):
            ev.integrate(sysm, pulse, 0.01, dt=0.001)


def test_vanishing_velocity_stays_a_bare_value_error():
    tg = unit_telegraph()
    zero = wm.CoefficientSystem(
        domain=tg.domain, k=2, E=tg.E,
        A=(wm.ConstMatrixField(np.zeros((2, 2))),), V=tg.V,
    )
    with pytest.raises(ValueError, match="vanishes") as info:
        ev.cfl_dt(zero, wm.Grid(tg.domain, (64,)), 0.4)
    assert type(info.value) is ValueError


def test_log_csv_round_trip(tmp_path):
    sysm = unit_telegraph()
    grid = wm.Grid(sysm.domain, (256,))
    pulse = ev.gaussian_state(grid, [1.0, 0.0], [0.5], 0.03)
    fin, log = ev.integrate(sysm, pulse, 0.05, log_every=10)
    p = tmp_path / "log.csv"
    log.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "t,energy,supp_lo_1,supp_hi_1,boundary_margin,max_abs"
    assert len(lines) == 1 + len(log.times)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) > 0
    assert float(first[4]) > 0


def test_snapshot_csv(tmp_path):
    grid = wm.Grid(wm.BoxDomain((0.0,), (1.0,)), (16,))
    st = ev.gaussian_state(grid, [1.0, 2.0j], [0.5], 0.1)
    p = tmp_path / "snap.csv"
    st.to_csv(p)
    lines = p.read_text().splitlines()
    assert lines[0] == "x1,re_1,im_1,re_2,im_2"
    assert len(lines) == 17
    row = lines[8].split(",")
    assert float(row[2]) == 0.0  # first component is real
    assert float(row[3]) == 0.0  # second is purely imaginary
