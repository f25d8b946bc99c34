"""Registry of numerical self-checks spanning every module.

Each check draws its own deterministically seeded generator, measures a worst
observed residual, and compares it against a fixed tolerance.  The CLI
``verify`` command renders the results as a table; the library entry point is
:func:`run_checks`.  A check may return ``None`` to signal that it cannot run
in the current environment; such checks report as skipped.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dsl
from .errors import ValidationError
from .grids import Grid
from .matkernel import op_norm, spd_sqrt, sym_eigen
from .systems import (
    BoxDomain,
    CoefficientSystem,
    ConstMatrixField,
    canonicalize,
    symbol,
    telegraph,
)
from .velocity import (
    VelocityField,
    _domination_gap,
    chernoff_c,
    fattorini_r,
    majorant,
    velocity_matrix,
)

DEFAULT_SEED = 0x5EED


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    module: str
    residual: float | None
    tolerance: float

    @property
    def status(self) -> str:
        if self.residual is None:
            return "skip"
        return "pass" if self.residual <= self.tolerance else "fail"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class Check:
    check_id: str
    module: str
    tolerance: float
    fn: Callable[[np.random.Generator], float | None]


CHECKS: list[Check] = []


def _register(check_id: str, tolerance: float):
    module = check_id.split(".")[0]

    def deco(fn):
        CHECKS.append(Check(check_id, module, tolerance, fn))
        return fn

    return deco


# --- shared fixtures --------------------------------------------------------

def _random_hermitian(rng, k: int) -> np.ndarray:
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return 0.5 * (a + a.conj().T)


def _random_spd(rng, k: int) -> np.ndarray:
    a = rng.standard_normal((k, k))
    return a @ a.T + k * np.eye(k)


def _random_system(rng) -> CoefficientSystem:
    """Constant coefficients under a constant weight: dense half the time,
    diagonal otherwise (the weight the canonical transform scales entry by entry)."""
    d = int(rng.integers(1, 4))
    k = int(rng.integers(2, 5))
    dom = BoxDomain((0.0,) * d, (1.0,) * d)
    A = tuple(ConstMatrixField(_random_hermitian(rng, k)) for _ in range(d))
    E = np.diag(rng.uniform(0.5, 2.0, k)) if rng.random() < 0.5 else _random_spd(rng, k)
    return CoefficientSystem(
        domain=dom,
        k=k,
        E=ConstMatrixField(E),
        A=A,
        V=ConstMatrixField(np.zeros((k, k))),
    )


def _interior_point(rng, sys: CoefficientSystem) -> np.ndarray:
    return rng.uniform(0.1, 0.9, size=sys.d)


def majorant_deficit(field: VelocityField) -> float:
    """Worst relative failure of the majorant to dominate the samples.

    Zero for a healthy field; positive when some node has an eigenvalue of
    majorant - M below zero.  Exposed separately so a deliberately corrupted
    field can be fed to the same measurement the registry uses.
    """
    if field.majorant_samples is None:
        raise ValidationError("field has no majorant attached")
    gap, scale = _domination_gap(field.majorant_samples, field.M_samples)
    return float(max(0.0, -(gap / scale).min()))


# --- matkernel --------------------------------------------------------------

@_register("matkernel.spd_sqrt_roundtrip", 1e-10)
def _check_sqrt_roundtrip(rng) -> float:
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 7))
        X = _random_spd(rng, k)
        S = np.asarray(spd_sqrt(X))
        worst = max(worst, float(np.linalg.norm(S @ S - X) / np.linalg.norm(X)))
    return worst


@_register("matkernel.op_norm_is_spectral", 1e-10)
def _check_op_norm(rng) -> float:
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 7))
        H = _random_hermitian(rng, k)
        ref = float(np.linalg.norm(H, 2))
        worst = max(worst, abs(op_norm(H) - ref) / max(ref, 1e-300))
    return worst


# --- dsl --------------------------------------------------------------------

def random_expression(rng, depth: int = 4) -> dsl.Expr:
    """Random well-formed expression tree over x, y, z."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return dsl.Num(float(np.round(rng.uniform(0.0, 9.0), 3)))
        return dsl.Var(str(rng.choice(dsl.VARIABLES)))
    roll = rng.random()
    if roll < 0.55:
        op = str(rng.choice(["+", "-", "*", "/", "^"]))
        lhs = random_expression(rng, depth - 1)
        rhs = random_expression(rng, depth - 1)
        if op == "^":  # keep powers tame and real
            rhs = dsl.Num(float(rng.integers(0, 3)))
        return dsl.Bin(op, lhs, rhs)
    if roll < 0.7:
        return dsl.Neg(random_expression(rng, depth - 1))
    fn = str(rng.choice(["sin", "cos", "exp", "tanh", "abs", "min", "max"]))
    nargs = dsl.FUNCTIONS[fn]
    args = tuple(random_expression(rng, depth - 1) for _ in range(nargs))
    return dsl.Call(fn, args)


@_register("dsl.print_parse_round_trip", 0.0)
def _check_dsl_round_trip(rng) -> float:
    bad = 0
    for _ in range(200):
        e = random_expression(rng)
        printed = dsl.to_text(e)
        again = dsl.to_text(dsl.parse(printed))
        if again != printed:
            bad += 1
            continue
        pt = {v: float(rng.uniform(0.1, 2.0)) for v in dsl.VARIABLES}
        a = dsl.eval_expr(e, pt)
        b = dsl.eval_expr(dsl.parse(printed), pt)
        same = (a == b) or (math.isnan(a) and math.isnan(b))
        if not same:
            bad += 1
    return float(bad)


# --- systems ----------------------------------------------------------------

@_register("systems.symbol_hermitian", 1e-12)
def _check_symbol_hermitian(rng) -> float:
    worst = 0.0
    for _ in range(10):
        sys = _random_system(rng)
        x = _interior_point(rng, sys)
        xi = rng.standard_normal(sys.d)
        s = np.asarray(symbol(sys, x, xi))
        scale = max(float(np.linalg.norm(s)), 1e-300)
        worst = max(worst, float(np.abs(s - s.conj().T).max()) / scale)
    return worst


@_register("systems.canonical_weight_is_identity", 1e-12)
def _check_canonical_identity(rng) -> float:
    worst = 0.0
    for _ in range(6):
        sys = _random_system(rng)
        can = canonicalize(sys)
        x = _interior_point(rng, sys)
        E = np.asarray(can.E(x))
        worst = max(worst, float(np.abs(E - np.eye(sys.k)).max()))
    return worst


# --- velocity ---------------------------------------------------------------

@_register("velocity.psd", 1e-12)
def _check_velocity_psd(rng) -> float:
    worst = 0.0
    for _ in range(10):
        sys = _random_system(rng)
        M = velocity_matrix(sys, _interior_point(rng, sys))
        scale = max(float(np.linalg.norm(M)), 1e-300)
        worst = max(worst, max(0.0, -float(sym_eigen(M)[0]) / scale))
    return worst


@_register("velocity.trace_identity", 1e-10)
def _check_trace_identity(rng) -> float:
    worst = 0.0
    for _ in range(10):
        sys = _random_system(rng)
        can = canonicalize(sys)
        x = _interior_point(rng, sys)
        M = velocity_matrix(sys, x)
        xi = rng.standard_normal(sys.d)
        s = np.asarray(symbol(can, x, xi))
        quad = float(xi @ M @ xi)
        tr = float(np.trace(s @ s).real)
        worst = max(worst, abs(quad - tr) / max(abs(quad), 1e-300))
    return worst


@_register("velocity.symbol_norm_sandwich", 1e-10)
def _check_sandwich(rng) -> float:
    worst = 0.0
    for _ in range(10):
        sys = _random_system(rng)
        can = canonicalize(sys)
        x = _interior_point(rng, sys)
        M = velocity_matrix(sys, x)
        xi = rng.standard_normal(sys.d)
        quad = float(xi @ M @ xi)
        n2 = op_norm(np.asarray(symbol(can, x, xi))) ** 2
        scale = max(quad, 1e-300)
        worst = max(worst, (quad / sys.k - n2) / scale, (n2 - quad) / scale)
    return max(worst, 0.0)


@_register("velocity.speed_bracket_order", 1e-10)
def _check_bracket(rng) -> float:
    worst = 0.0
    for _ in range(6):
        sys = _random_system(rng)
        x = _interior_point(rng, sys)
        br = chernoff_c(sys, x)
        r = fattorini_r(sys, x)
        scale = max(br.upper, 1e-300)
        worst = max(
            worst,
            (br.lower - br.upper) / scale,
            (r - br.upper) / scale,
            (br.lower - math.sqrt(sys.d) * r) / scale,
        )
    return max(worst, 0.0)


@_register("velocity.scaling_covariance", 1e-12)
def _check_scaling(rng) -> float:
    worst = 0.0
    for _ in range(6):
        sys = _random_system(rng)
        s = float(rng.uniform(0.5, 3.0))
        scaled = CoefficientSystem(
            domain=sys.domain,
            k=sys.k,
            E=sys.E,
            A=tuple(ConstMatrixField(s * A.mat) for A in sys.A),
            V=sys.V,
        )
        x = _interior_point(rng, sys)
        M1 = velocity_matrix(sys, x)
        M2 = velocity_matrix(scaled, x)
        scale = max(float(np.linalg.norm(M2)), 1e-300)
        worst = max(worst, float(np.linalg.norm(M2 - s**2 * M1)) / scale)
    return worst


@_register("velocity.majorant_dominates", 1e-9)
def _check_majorant(rng) -> float:
    sys = telegraph("1 + 0.5*sin(3*x)", "2 - x")
    grid = Grid(sys.domain, (64,))
    fld = majorant(VelocityField.from_system(sys, grid), 0.1)
    return majorant_deficit(fld)


# --- geometry ---------------------------------------------------------------

@_register("geometry.triangle_inequality", 1e-9)
def _check_triangle(rng) -> float:
    from .geometry import MetricField, lattice_geodesic

    sys_dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
    grid = Grid(sys_dom, (24, 24))
    G = _random_spd(rng, 2)
    metric = MetricField(grid, np.broadcast_to(G, grid.shape + (2, 2)).copy())
    a = (int(rng.integers(0, 24)), int(rng.integers(0, 24)))
    b = (int(rng.integers(0, 24)), int(rng.integers(0, 24)))
    da = lattice_geodesic(metric, [a]).values
    db = lattice_geodesic(metric, [b]).values
    viol = da - (da[b] + db)
    return float(max(0.0, viol.max() / max(da.max(), 1e-300)))


@_register("geometry.stencil_consistency_bound", 1e-12)
def _check_stencil_bound(rng) -> float:
    from .geometry import STENCIL_BOUNDS, MetricField, lattice_geodesic

    dom = BoxDomain((0.0, 0.0), (1.0, 1.0))
    grid = Grid(dom, (33, 33))
    metric = MetricField(grid, np.broadcast_to(np.eye(2), grid.shape + (2, 2)).copy())
    src = (16, 16)
    dist = lattice_geodesic(metric, [src]).values
    eu = np.linalg.norm(grid.coords() - grid.node_coords(src), axis=-1)
    mask = eu > 0
    ratio = float((dist[mask] / eu[mask]).max())
    return max(0.0, ratio - STENCIL_BOUNDS[8])


# --- evolve -----------------------------------------------------------------

@_register("evolve.discrete_symmetry", 1e-11)
def _check_symmetry(rng) -> float:
    from .evolve import DiscreteOperator

    sys = telegraph("1 + 0.5*x", "2 - x")
    grid = Grid(sys.domain, (48,))
    op = DiscreteOperator(sys, grid)
    E = sys.E.on_grid(grid.axes)
    w = grid.trapezoid_weights()

    def ip(u, v):
        return complex((w * np.einsum("...a,...ab,...b->...", np.conj(u), E, v)).sum())

    worst = 0.0
    for _ in range(3):
        u = rng.standard_normal((48, 2)) + 1j * rng.standard_normal((48, 2))
        v = rng.standard_normal((48, 2)) + 1j * rng.standard_normal((48, 2))
        u[:4] = u[-4:] = v[:4] = v[-4:] = 0.0
        lhs = ip(u, op.apply(v))
        rhs = ip(op.apply(u), v)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return worst


@_register("evolve.energy_conservation", 1e-8)
def _check_energy(rng) -> float:
    from .evolve import gaussian_state, integrate

    sys = telegraph("1 + 0.25*x", "1")
    grid = Grid(sys.domain, (256,))
    pulse = gaussian_state(grid, [1.0, 0.0], [0.5], 0.04)
    _, log = integrate(sys, pulse, 0.1)
    return abs(log.energies[-1] / log.energies[0] - 1.0)


# --- cli --------------------------------------------------------------------

@_register("cli.scenario_normalization_idempotent", 0.0)
def _check_scenario_round_trip(rng) -> float:
    from .cli import normalize_scenario

    raw = {
        "system": {"name": "telegraph", "params": {"L": "1 + 0.5*x", "C": "1"}},
        "domain": {"lower": [0.0], "upper": [1.0], "unbounded": ["none"]},
        "grid": {"nodes": [64]},
        "analysis": {"delta": 0.1, "cutoffs": 16, "stencil": 8,
                     "criterion": "velocity"},
        "output": {"dir": "out"},
    }
    once = normalize_scenario(raw)
    twice = normalize_scenario(once)
    return 0.0 if once == twice else 1.0


# --- runner -----------------------------------------------------------------

def run_checks(pattern: str | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the registered checks whose id matches the regex, in order."""
    matcher = re.compile(pattern) if pattern else None
    out = []
    for idx, chk in enumerate(CHECKS):
        if matcher is not None and not matcher.search(chk.check_id):
            continue
        rng = np.random.default_rng([seed, idx])
        try:
            residual = chk.fn(rng)
        except Exception:  # a crashed check is a failed check, not a crash
            residual = math.inf
        out.append(CheckResult(chk.check_id, chk.module, residual, chk.tolerance))
    return out


def format_table(results: list[CheckResult]) -> str:
    """Fixed-width table: check id, module, worst residual, tolerance, status."""
    rows = [("check", "module", "residual", "tolerance", "status")]
    for r in results:
        res = "-" if r.residual is None else f"{r.residual:.3e}"
        rows.append((r.check_id, r.module, res, f"{r.tolerance:.1e}", r.status))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    n_pass = sum(1 for r in results if r.status == "pass")
    n_fail = sum(1 for r in results if r.status == "fail")
    n_skip = sum(1 for r in results if r.status == "skip")
    tail = f"{len(results)} checks: {n_pass} passed, {n_fail} failed"
    if n_skip:
        tail += f", {n_skip} skipped"
    lines.append(tail)
    return "\n".join(lines)
