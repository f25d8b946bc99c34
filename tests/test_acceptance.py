"""End-to-end acceptance checks, one printed verdict line per criterion.

Each test exercises a full slice of the package and prints a single
pass/fail line through the capture-disabled console so the verdicts are
visible in any pytest run.  Runtime limits are part of the checks; the
compiled kernels are warmed once up front so the limits measure the
algorithms rather than JIT compilation.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

import wavemetric as wm
from wavemetric import dsl
from wavemetric.cli import main as cli_main
from wavemetric.errors import DomainEvalError, ExpressionError
from wavemetric.geometry import (
    STENCIL_BOUNDS,
    MetricField,
    eikonal_arrival,
    lattice_geodesic,
    ray_completeness,
)
from wavemetric.matkernel import op_norm
from wavemetric.systems import (
    BoxDomain,
    CoefficientSystem,
    ConstMatrixField,
    canonicalize,
)
from wavemetric.velocity import (
    VelocityField,
    chernoff_c,
    fattorini_r,
    majorant,
    velocity_matrix,
)
from wavemetric.verify import random_expression

from velocity_oracle import velocity_matrix_structured

DIVERGENT = ("certified-divergent", "likely-divergent")
NON_DIVERGENT = ("likely-convergent", "inconclusive")


def _report(capsys, num, title, ok, detail, elapsed):
    with capsys.disabled():
        status = "pass" if ok else "fail"
        extra = f" ({detail})" if detail else ""
        print(f"criterion {num:02d} {title}: {status}{extra} [{elapsed:.1f}s]")


@pytest.fixture(scope="module", autouse=True)
def _warm_kernels():
    """Trigger kernel compilation outside the timed sections."""
    dom = BoxDomain((0.0,), (1.0,))
    sysm = wm.telegraph(1.0, 1.0, domain=dom)
    grid = wm.Grid(dom, (64,))
    pulse = wm.gaussian_state(grid, [1.0, 0.0], [0.5], 0.05)
    for order in (2, 4):
        wm.integrate(sysm, pulse, 0.01, order=order)
    g2 = wm.Grid(BoxDomain((0.0, 0.0), (1.0, 1.0)), (9, 9))
    ident = np.broadcast_to(np.eye(2), g2.shape + (2, 2)).copy()
    lattice_geodesic(MetricField(g2, ident), [(4, 4)])
    eikonal_arrival(g2, VelocityField(g2, ident.copy()), [(4, 4)])


def test_closed_form_velocity_matrices(capsys):
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        L, C = rng.uniform(0.2, 5.0, 2)
        M = velocity_matrix(wm.telegraph(float(L), float(C)), [0.5])
        want = 2.0 / (L * C)
        worst = max(worst, abs(M[0, 0] - want) / want)
    for _ in range(100):
        eps, mu = rng.uniform(0.2, 5.0, 2)
        M = velocity_matrix(wm.maxwell_isotropic(float(eps), float(mu)), [0.5] * 3)
        want = 4.0 / (eps * mu)
        worst = max(worst, float(np.abs(M - want * np.eye(3)).max()) / want)
    for _ in range(100):
        rho, K, mu_s = rng.uniform(0.2, 5.0, 3)
        sysm = wm.elastic_isotropic(float(rho), float(K), float(mu_s))
        want = (2.0 / rho) * (K + 10.0 * mu_s / 3.0)
        M = velocity_matrix(sysm, [0.5] * 3)
        worst = max(worst, float(np.abs(M - want * np.eye(3)).max()) / want)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(capsys, 1, "closed-form velocity matrices", ok,
            f"worst rel {worst:.2e}", elapsed)
    assert worst <= 1e-10
    assert elapsed < 1.0


def _random_spd(rng, n, lo=0.5, hi=2.5):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (Q * rng.uniform(lo, hi, n)) @ Q.T


def test_structured_formulas_match_generic_trace(capsys):
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        eps = _random_spd(rng, 3)
        mu = _random_spd(rng, 3)
        sysm = wm.maxwell_anisotropic(eps.tolist(), mu.tolist())
        x = rng.uniform(0.2, 0.8, 3)
        a = velocity_matrix(sysm, x)
        b = velocity_matrix_structured(sysm, x)
        worst = max(worst, float(np.abs(a - b).max() / np.abs(a).max()))
    for _ in range(100):
        C_voigt = _random_spd(rng, 6, 0.5, 3.0)
        upper = [float(C_voigt[i, j]) for i in range(6) for j in range(i, 6)]
        sysm = wm.elastic(float(rng.uniform(0.5, 3.0)), upper)
        x = rng.uniform(0.2, 0.8, 3)
        a = velocity_matrix(sysm, x)
        b = velocity_matrix_structured(sysm, x)
        worst = max(worst, float(np.abs(a - b).max() / np.abs(a).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(capsys, 2, "structured formulas vs generic trace", ok,
            f"worst rel {worst:.2e}", elapsed)
    assert worst <= 1e-10
    assert elapsed < 5.0


def _random_constant_system(rng):
    d = int(rng.integers(1, 4))
    k = int(rng.integers(2, 5))

    def herm(scale=1.0):
        Z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        return ConstMatrixField(0.5 * scale * (Z + Z.conj().T))

    def spd():
        Z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        return ConstMatrixField(Z @ Z.conj().T + 0.3 * np.eye(k))

    return CoefficientSystem(
        domain=BoxDomain((0.0,) * d, (1.0,) * d),
        k=k,
        E=spd(),
        A=tuple(herm() for _ in range(d)),
        V=herm(0.5),
    )


def test_matrix_inequality_suite(capsys):
    rng = np.random.default_rng(1003)
    t0 = time.perf_counter()
    w_trace = w_sandwich = w_bracket = 0.0
    for _ in range(1000):
        sysm = _random_constant_system(rng)
        d, k = sysm.d, sysm.k
        x = rng.uniform(0.2, 0.8, d)
        xi = rng.normal(size=d)
        xi /= np.linalg.norm(xi)
        can = canonicalize(sysm)

        M = velocity_matrix(can, x)
        Ei = np.linalg.inv(sysm.E(x))
        M_direct = np.empty((d, d))
        for j in range(d):
            for l in range(d):
                M_direct[j, l] = np.trace(Ei @ sysm.A[j](x) @ Ei @ sysm.A[l](x)).real
        w_trace = max(w_trace, float(np.abs(M - M_direct).max() / np.abs(M).max()))

        B = [A(x) for A in can.A]
        sym_norm_sq = op_norm(sum(c * b for c, b in zip(xi, B))) ** 2
        quad = float(xi @ M @ xi)
        scale = max(quad, 1.0)
        w_sandwich = max(w_sandwich, (quad / k - sym_norm_sq) / scale,
                         (sym_norm_sq - quad) / scale)

        r = fattorini_r(can, x)
        br = chernoff_c(can, x)
        w_bracket = max(w_bracket, br.lower - br.upper, r - br.upper,
                        br.lower - math.sqrt(d) * r)

    # Domination of the constructed majorant, checked node-wise across one
    # variable-coefficient field per built-in family (eigenvalue test covers
    # every direction at once).
    fields = [
        VelocityField.from_system(
            wm.telegraph("1 + 0.5*sin(3*x)", "2 - x"),
            wm.Grid(BoxDomain((0.0,), (1.0,)), (512,))),
        VelocityField.from_system(
            wm.maxwell_isotropic("1 + 0.3*x*y", "1 + 0.2*y",
                                 domain=BoxDomain((0.0, 0.0), (1.0, 1.0))),
            wm.Grid(BoxDomain((0.0, 0.0), (1.0, 1.0)), (24, 24))),
    ]
    w_majorant = 0.0
    checked = 0
    for fld in fields:
        with_h = majorant(fld, 0.1)
        gap = with_h.majorant_samples - with_h.M_samples
        lam_min = np.linalg.eigvalsh(0.5 * (gap + np.swapaxes(gap, -1, -2)))[..., 0]
        scale = float(np.abs(with_h.M_samples).max())
        w_majorant = max(w_majorant, -float(lam_min.min()) / scale)
        checked += lam_min.size
    assert checked >= 1000

    elapsed = time.perf_counter() - t0
    ok = (w_trace <= 1e-10 and w_sandwich <= 1e-10 and w_bracket <= 1e-10
          and w_majorant <= 1e-9 and elapsed < 10.0)
    _report(capsys, 3, "matrix inequality suite", ok,
            f"trace {w_trace:.1e} sandwich {w_sandwich:.1e} "
            f"bracket {w_bracket:.1e} majorant {w_majorant:.1e}", elapsed)
    assert w_trace <= 1e-10
    assert w_sandwich <= 1e-10
    assert w_bracket <= 1e-10
    assert w_majorant <= 1e-9
    assert elapsed < 10.0


def test_energy_conservation_three_media(capsys):
    t0 = time.perf_counter()
    runs = [
        ("telegraph",
         wm.telegraph("1 + 0.2*sin(2*x)", "1.5 - 0.3*x",
                      domain=BoxDomain((0.0,), (4.0,))),
         (1024,), [2.0], 0.05, 0),
        ("maxwell-2d",
         wm.maxwell_isotropic("1 + 0.3*x*y/49", "1",
                              domain=BoxDomain((0.0, 0.0), (7.0, 7.0))),
         (256, 256), [3.5, 3.5], 0.2, 3),
        ("elastic-1d",
         wm.elastic_isotropic("1 + 0.1*x", "1 + 0.05*x", "0.3",
                              domain=BoxDomain((0.0,), (6.0,))),
         (1024,), [3.0], 0.05, 7),
    ]
    drifts = {}
    for name, sysm, nodes, center, sigma, comp in runs:
        grid = wm.Grid(sysm.domain, nodes)
        amps = [0.0] * sysm.k
        amps[comp] = 1.0
        pulse = wm.gaussian_state(grid, amps, center, sigma)
        _, log = wm.integrate(sysm, pulse, 1.0, cfl=0.4, order=4)
        drifts[name] = max(abs(e / log.energies[0] - 1.0) for e in log.energies)
        assert not log.contaminated
    elapsed = time.perf_counter() - t0
    worst = max(drifts.values())
    ok = worst <= 1e-6 and elapsed < 120.0
    _report(capsys, 4, "energy conservation in three media", ok,
            " ".join(f"{k} {v:.1e}" for k, v in drifts.items()), elapsed)
    assert worst <= 1e-6, drifts
    assert elapsed < 120.0


def test_finite_propagation_speed_arrival(capsys):
    t0 = time.perf_counter()
    dom = BoxDomain((0.0,), (1.0,))
    sysm = wm.telegraph(1.0, 1.0, domain=dom)
    grid = wm.Grid(dom, (4095,))
    pulse = wm.gaussian_state(grid, [1.0, 0.0], [0.5], 1e-3)
    probes = [grid.nearest_node([0.1]), grid.nearest_node([0.9])]
    arrivals = wm.arrival_time(sysm, pulse, 0.6, probes, threshold=1e-3, order=4)

    vel = VelocityField.from_system(sysm, grid)
    eik = eikonal_arrival(grid, vel, [grid.nearest_node([0.5])])
    h = grid.spacing[0]
    cell_time = h / math.sqrt(2.0)

    worst_rel = 0.0
    bound_ok = True
    for p, arr in zip(probes, arrivals):
        expected = abs(grid.node_coords(p)[0] - 0.5)  # wave speed is 1
        worst_rel = max(worst_rel, abs(arr - expected) / expected)
        bound_ok = bound_ok and arr >= eik.values[p] - 3.0 * cell_time
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 0.02 and bound_ok and elapsed < 60.0
    _report(capsys, 5, "finite propagation speed", ok,
            f"worst rel {worst_rel:.4f}, eikonal bound {'held' if bound_ok else 'broken'}",
            elapsed)
    assert worst_rel <= 0.02
    assert bound_ok
    assert elapsed < 60.0


def _analyze_telegraph(workdir, coeff):
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out"
    scenario = {
        "system": {"name": "telegraph", "params": {"L": coeff, "C": coeff}},
        "domain": {"lower": [0.0], "upper": [1.0]},
        "grid": {"nodes": [512]},
        "output": {"dir": str(out)},
    }
    path = workdir / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli_main(["analyze", str(path)]) == 0
    return json.loads((out / "verdict.json").read_text())["classification"]


def test_degenerate_speed_confinement_and_verdicts(tmp_path, capsys):
    t0 = time.perf_counter()
    dom = BoxDomain((0.0,), (1.0,))
    grid = wm.Grid(dom, (2048,))
    pulse = wm.gaussian_state(grid, [1.0, 0.0], [0.5], 0.02)

    slow = wm.telegraph("1/sin(pi*x)^2", "1/sin(pi*x)^2", domain=dom)
    _, log = wm.integrate(slow, pulse, 10.0, order=4, log_every=100)
    lo = min(b[0][0] for b in log.boxes if b is not None)
    hi = max(b[0][1] for b in log.boxes if b is not None)
    margins_ok = lo >= 0.02 and hi <= 0.98

    flat = wm.telegraph(1.0, 1.0, domain=dom)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, clog = wm.integrate(flat, pulse, 0.6, order=4, log_every=50)
    reached = [t for t, b in zip(clog.times, clog.boxes)
               if b is not None and (b[0][1] >= 0.98 or b[0][0] <= 0.02)]
    control_ok = bool(reached) and reached[0] < 0.6

    slow_verdict = _analyze_telegraph(tmp_path / "slow", "1/sin(pi*x)^2")
    flat_verdict = _analyze_telegraph(tmp_path / "flat", "1")

    elapsed = time.perf_counter() - t0
    ok = (margins_ok and slow_verdict == "certified-divergent"
          and control_ok and flat_verdict == "likely-convergent"
          and elapsed < 180.0)
    _report(capsys, 6, "confinement under a degenerate speed", ok,
            f"support box [{lo:.4f}, {hi:.4f}], verdicts {slow_verdict}/{flat_verdict}, "
            f"control reached margin at t={reached[0]:.3f}" if reached else
            f"support box [{lo:.4f}, {hi:.4f}], control never reached the margin",
            elapsed)
    assert margins_ok, (
        f"support box [{lo:.4f}, {hi:.4f}] entered the 2% margin bands of (0, 1)"
    )
    assert slow_verdict == "certified-divergent"
    assert control_ok
    assert flat_verdict == "likely-convergent"
    assert elapsed < 180.0


def test_degenerate_speed_peak_follows_the_characteristic():
    # Companion to criterion 06, which gates the 1e-8 support box and stays
    # red by design.  With L = C = 1/sin^2(pi x) the impedance sqrt(L/C) is 1,
    # so the right-moving half of the pulse does not reflect: I + V rides
    # dx/dt = c(x) = sin^2(pi x), that is cot(pi x(t)) = cot(pi x0) - pi t.
    # Its energy density (I + V)^2 / (2 c(x)) peaks on that curve up to the
    # offsets below, gated while sigma c(x) spans at least 8 nodes and the
    # left-moving half lies more than 5 sigma behind.
    dom = BoxDomain((0.0,), (1.0,))
    grid = wm.Grid(dom, (2048,))
    h, sigma, x0, order = grid.spacing[0], 0.02, 0.5, 4
    slow = wm.telegraph("1/sin(pi*x)^2", "1/sin(pi*x)^2", domain=dom)
    pulse = wm.gaussian_state(grid, [1.0, 0.0], [x0], sigma)

    def characteristic(t):
        return x0 + math.atan(math.pi * t) / math.pi  # cot(pi x) = -pi t, x > 1/2

    # tolerance, fixed from h and the order before the first run:
    # - reading the peak (log-parabola vertex through the top node): h/2;
    # - the 1/c(x) factor moves the density peak ahead of the characteristic
    #   by (sigma^2 / 2) |c c'| <= (sigma^2 / 2) 2 pi (3 sqrt(3) / 16);
    # - order-p differences slow a mode of kh <= 1/8 by (kh)^2 / 2 (p = 2) or
    #   (kh)^4 / 6 (p = 4) of its speed, over a distance below 1/2.
    x_end = 1.0 - math.asin(math.sqrt(8.0 * h / sigma)) / math.pi
    tol = (h / 2 + 0.5 * sigma**2 * 2.0 * math.pi * 3.0 * math.sqrt(3.0) / 16.0
           + 0.5 * {2: 0.5, 4: 1.0 / 6.0}[order] * (1.0 / 8.0) ** order)
    t_start = math.tan(math.pi * 5.0 * sigma) / math.pi
    t_end = -1.0 / (math.pi * math.tan(math.pi * x_end))
    x, E = grid.axes[0], slow.E.on_grid(grid.axes)
    worst = 0.0
    for T in np.linspace(t_start, t_end, 6):
        state, _ = wm.integrate(slow, pulse, float(T), order=order)
        dens = np.real(np.einsum("na,nab,nb->n", np.conj(state.values), E, state.values))
        dens[x <= x0] = 0.0
        m = int(np.argmax(dens))
        lm, l0, lp = np.log(dens[m - 1:m + 2])
        peak = x[m] + 0.5 * h * (lm - lp) / (lm - 2.0 * l0 + lp)
        worst = max(worst, abs(peak - characteristic(float(T))))
    assert worst <= tol, f"peak {worst / h:.3f} h off the characteristic (tolerance {tol / h:.3f} h)"


def test_classifier_grades_power_law_family(capsys):
    t0 = time.perf_counter()
    grades = {}
    for p in (0.5, 0.9, 1.0, 1.5, 2.0):
        verdict = ray_completeness(lambda t, p=p: (1.0 - t) ** p, 0.0, 1.0)
        grades[p] = verdict.classification
    elapsed = time.perf_counter() - t0
    ok = (all(grades[p] == "likely-convergent" for p in (0.5, 0.9))
          and grades[1.0] == "certified-divergent"
          and all(grades[p] in DIVERGENT for p in (1.5, 2.0))
          and elapsed < 1.0)
    _report(capsys, 7, "power-law boundary speeds", ok,
            " ".join(f"p={p}: {g}" for p, g in grades.items()), elapsed)
    for p in (0.5, 0.9):
        assert grades[p] == "likely-convergent"
    assert grades[1.0] == "certified-divergent"
    for p in (1.5, 2.0):
        assert grades[p] in DIVERGENT
    assert elapsed < 1.0


def test_lattice_geodesic_reference_distances(capsys):
    t0 = time.perf_counter()

    # Euclidean plane: every distance within the 8-neighbour stencil bound.
    grid = wm.Grid(BoxDomain((0.0, 0.0), (1.0, 1.0)), (257, 257))
    ident = np.broadcast_to(np.eye(2), grid.shape + (2, 2)).copy()
    dist = lattice_geodesic(MetricField(grid, ident), [(128, 128)])
    xs, ys = np.meshgrid(grid.axes[0], grid.axes[1], indexing="ij")
    euclid = np.hypot(xs - 0.5, ys - 0.5)
    ratio = dist.values[euclid > 0] / euclid[euclid > 0]
    ratio_lo, ratio_hi = float(ratio.min()), float(ratio.max())

    # Anisotropic diag(1/4, 1): the cheap axis costs half the coordinate
    # span.  Spacing 1/256 along both axes puts the probe nodes exactly at
    # x = 0.5 and x = 1.5, one coordinate unit apart.
    grid_a = wm.Grid(BoxDomain((0.0, 0.0), (513.0 / 256.0, 0.5)), (512, 127))
    mats = np.broadcast_to(np.diag([0.25, 1.0]), grid_a.shape + (2, 2)).copy()
    dist_a = lattice_geodesic(MetricField(grid_a, mats), [(127, 63)])
    axis_err = abs(float(dist_a.values[383, 63]) - 0.5)

    # Variable 1-D metric against the closed-form line integral.
    grid_1 = wm.Grid(BoxDomain((0.0,), (2.0,)), (4096,))
    x = grid_1.axes[0]
    g = (0.8 + 0.3 * np.cos(x)) ** 2
    dist_1 = lattice_geodesic(MetricField(grid_1, g.reshape(-1, 1, 1)), [(0,)])
    exact = 0.8 * (x[-1] - x[0]) + 0.3 * (np.sin(x[-1]) - np.sin(x[0]))
    quad_rel = abs(float(dist_1.values[-1]) - exact) / exact

    elapsed = time.perf_counter() - t0
    ok = (ratio_lo >= 1.0 - 1e-9 and ratio_hi <= STENCIL_BOUNDS[8] + 1e-9
          and axis_err <= 1e-6 and quad_rel <= 5e-3 and elapsed < 30.0)
    _report(capsys, 8, "lattice geodesic reference distances", ok,
            f"ratio [{ratio_lo:.6f}, {ratio_hi:.6f}], axis err {axis_err:.1e}, "
            f"1-d quadrature rel {quad_rel:.1e}", elapsed)
    assert ratio_lo >= 1.0 - 1e-9
    assert ratio_hi <= STENCIL_BOUNDS[8] + 1e-9
    assert axis_err <= 1e-6
    assert quad_rel <= 5e-3
    assert elapsed < 30.0


def test_canonical_transform_commutes_with_evolution(capsys):
    t0 = time.perf_counter()
    dom = BoxDomain((0.0,), (2.0,))
    sysm = wm.telegraph("1 + 0.25*x", "1", domain=dom)
    grid = wm.Grid(dom, (3072,))
    psi0 = wm.gaussian_state(grid, [1.0, 0.0], [1.0], 0.05)

    weights = sysm.E.on_grid(grid.axes)
    lam, Q = np.linalg.eigh(weights)
    W = np.einsum("...ab,...b,...cb->...ac", Q, np.sqrt(lam), Q)
    phi0 = wm.WaveState(grid, np.einsum("...ab,...b->...a", W, psi0.values), 0.0)

    dt = wm.cfl_dt(sysm, grid, 0.4)
    fin_orig, _ = wm.integrate(sysm, psi0, 0.3, order=4, dt=dt)
    fin_canon, _ = wm.integrate(canonicalize(sysm), phi0, 0.3, order=4, dt=dt)
    mapped = np.einsum("...ab,...b->...a", W, fin_orig.values)
    rel = float(np.abs(mapped - fin_canon.values).max()
                / np.abs(fin_canon.values).max())
    elapsed = time.perf_counter() - t0
    ok = rel <= 1e-6 and elapsed < 60.0
    _report(capsys, 9, "canonical transform commutes", ok,
            f"rel {rel:.2e}", elapsed)
    assert rel <= 1e-6
    assert elapsed < 60.0


GRAMMAR_ERRORS = [
    "",
    "1 +",
    "(2",
    "2 * * 2",
    "sin(1, 2)",
    "foo(1)",
    "1 + $",
    "x y",
    "q + 1",
]

DOMAIN_ERRORS = [
    "sqrt(0 - x)",
    "log(x - 2)",
    "(0 - x)^0.5",
    "(x - x)^(0 - 1)",
    "y + 1",
]


def test_expression_round_trips_and_positioned_errors(capsys):
    rng = np.random.default_rng(1010)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(10000):
        text = dsl.to_text(random_expression(rng))
        if dsl.to_text(dsl.parse(text)) != text:
            mismatches += 1

    bad_grammar = []
    for src in GRAMMAR_ERRORS:
        try:
            dsl.parse(src)
            bad_grammar.append(src)
        except ExpressionError as exc:
            if not (isinstance(exc.position, int) and exc.position >= 1
                    and "position" in str(exc)):
                bad_grammar.append(src)

    bad_domain = []
    for src in DOMAIN_ERRORS:
        try:
            dsl.eval_expr(dsl.parse(src), [0.5], source=src)
            bad_domain.append(src)
        except DomainEvalError as exc:
            if not exc.fragment:
                bad_domain.append(src)

    elapsed = time.perf_counter() - t0
    ok = (mismatches == 0 and not bad_grammar and not bad_domain
          and elapsed < 5.0)
    _report(capsys, 10, "expression round trips and errors", ok,
            f"{mismatches} mismatches in 10000, "
            f"{len(bad_grammar) + len(bad_domain)} unpositioned errors", elapsed)
    assert mismatches == 0
    assert not bad_grammar, bad_grammar
    assert not bad_domain, bad_domain
    assert elapsed < 5.0


def test_punctured_dirac_demo(tmp_path, capsys):
    t0 = time.perf_counter()
    M = velocity_matrix(wm.dirac_free(), [0.5, 0.5, 0.5])
    mat_err = float(np.abs(M - 4.0 * np.eye(3)).max())

    out = tmp_path / "out"
    scenario = {
        "system": {"name": "dirac", "params": {"radius": 0.1}},
        "domain": {"lower": [-2.0] * 3, "upper": [2.0] * 3,
                   "unbounded": ["both"] * 3},
        "grid": {"nodes": [48, 48, 48]},
        "analysis": {"cutoffs": 12},
        "output": {"dir": str(out)},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert cli_main(["analyze", str(path)]) == 0

    verdict = json.loads((out / "verdict.json").read_text())
    toward_ball = [r for r in verdict["routes"]
                   if r["parameters"].get("route") == "distance to the domain boundary"]
    ball_grade = toward_ball[0]["classification"] if toward_ball else "missing"
    summary = (out / "summary.txt").read_text()
    note_ok = "sufficient condition" in summary and "not a necessary one" in summary

    elapsed = time.perf_counter() - t0
    ok = (mat_err <= 1e-12 and ball_grade in NON_DIVERGENT
          and verdict["classification"] in NON_DIVERGENT and note_ok
          and elapsed < 10.0)
    _report(capsys, 11, "punctured free Dirac demo", ok,
            f"matrix err {mat_err:.1e}, ball route {ball_grade}, "
            f"overall {verdict['classification']}", elapsed)
    assert mat_err <= 1e-12
    assert ball_grade in NON_DIVERGENT
    assert verdict["classification"] in NON_DIVERGENT
    assert note_ok
    assert elapsed < 10.0
