"""Registry of numerical self-checks spanning every module.

Each check is a draw, which turns a random generator into one case; a
residual, which measures how far that case is from the invariant (zero or
below when it holds); a draw count; and a fixed tolerance.  Checks that draw
the same kind of case share one draw.  :func:`run_checks` seeds one generator
per check, takes the largest residual over its draws and compares it with the
tolerance; the CLI ``verify`` command renders the results as a table.  Tests
call a check's residual on cases of their own through :func:`get_check`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import dsl
from .errors import ValidationError
from .evolve import DiscreteOperator, gaussian_state, integrate
from .geometry import MetricField, lattice_geodesic, metric_from_velocity
from .grids import Grid
from .matkernel import op_norm, spd_sqrt, sym_eigen
from .systems import (
    BoxDomain,
    CoefficientSystem,
    ConstMatrixField,
    canonicalize,
    maxwell_isotropic,
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
    residual: float
    tolerance: float

    @property
    def status(self) -> str:
        return "pass" if self.residual <= self.tolerance else "fail"

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class Check:
    check_id: str
    module: str
    tolerance: float
    draw: Callable[[np.random.Generator], Any]
    residual: Callable[[Any], float]
    draws: int = 1


CHECKS: list[Check] = []


def _register(check_id: str, tolerance: float, draw, draws: int = 1):
    module = check_id.split(".")[0]

    def deco(residual):
        CHECKS.append(Check(check_id, module, tolerance, draw, residual, draws))
        return residual

    return deco


def get_check(check_id: str) -> Check:
    """The registered check with this id."""
    return {c.check_id: c for c in CHECKS}[check_id]


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


def _draw_system_point(rng):
    """(system, interior point)."""
    sys = _random_system(rng)
    return sys, rng.uniform(0.1, 0.9, size=sys.d)


def _draw_system_point_direction(rng):
    """(system, interior point, direction)."""
    sys, x = _draw_system_point(rng)
    return sys, x, rng.standard_normal(sys.d)


def _draw_scaled_system(rng):
    """(system, the system with every A^j times s, s, interior point)."""
    sys = _random_system(rng)
    s = float(rng.uniform(0.5, 3.0))
    scaled = CoefficientSystem(
        domain=sys.domain,
        k=sys.k,
        E=sys.E,
        A=tuple(ConstMatrixField(s * A.mat) for A in sys.A),
        V=sys.V,
    )
    return sys, scaled, s, rng.uniform(0.1, 0.9, size=sys.d)


def _random_node(rng, shape) -> tuple[int, ...]:
    return tuple(int(rng.integers(0, n)) for n in shape)


def majorant_deficit(field: VelocityField) -> float:
    """Worst relative failure of the majorant to dominate the samples.

    Zero for a healthy field; positive when some node has an eigenvalue of
    majorant - M below zero.  The residual of ``velocity.majorant_dominates``,
    so a deliberately corrupted field can be fed to the same measurement.
    """
    if field.majorant_samples is None:
        raise ValidationError("field has no majorant attached")
    gap, scale = _domination_gap(field.majorant_samples, field.M_samples)
    return float(max(0.0, -(gap / scale).min()))


# --- matkernel --------------------------------------------------------------

@_register("matkernel.spd_sqrt_roundtrip", 1e-10,
           lambda rng: _random_spd(rng, int(rng.integers(2, 7))), draws=20)
def _sqrt_roundtrip(X) -> float:
    S = np.asarray(spd_sqrt(X))
    return float(np.linalg.norm(S @ S - X) / np.linalg.norm(X))


@_register("matkernel.op_norm_is_spectral", 1e-10,
           lambda rng: _random_hermitian(rng, int(rng.integers(2, 7))), draws=20)
def _op_norm_is_spectral(H) -> float:
    ref = float(np.linalg.norm(H, 2))
    return abs(op_norm(H) - ref) / max(ref, 1e-300)


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


def _draw_expression(rng):
    """(expression, point of evaluation)."""
    e = random_expression(rng)
    return e, {v: float(rng.uniform(0.1, 2.0)) for v in dsl.VARIABLES}


@_register("dsl.print_parse_round_trip", 0.0, _draw_expression, draws=200)
def _dsl_round_trip(case) -> float:
    e, pt = case
    printed = dsl.to_text(e)
    again = dsl.parse(printed)
    if dsl.to_text(again) != printed:
        return 1.0
    a, b = dsl.eval_expr(e, pt), dsl.eval_expr(again, pt)
    return 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else 1.0


# --- systems ----------------------------------------------------------------

@_register("systems.symbol_hermitian", 1e-12, _draw_system_point_direction, draws=10)
def _symbol_hermitian(case) -> float:
    s = np.asarray(symbol(*case))
    return float(np.abs(s - s.conj().T).max()) / max(float(np.linalg.norm(s)), 1e-300)


@_register("systems.canonical_weight_is_identity", 1e-12, _draw_system_point, draws=6)
def _canonical_identity(case) -> float:
    sys, x = case
    return float(np.abs(np.asarray(canonicalize(sys).E(x)) - np.eye(sys.k)).max())


# --- velocity ---------------------------------------------------------------

@_register("velocity.psd", 1e-12, _draw_system_point, draws=10)
def _velocity_psd(case) -> float:
    M = velocity_matrix(*case)
    return -float(sym_eigen(M)[0]) / max(float(np.linalg.norm(M)), 1e-300)


@_register("velocity.trace_identity", 1e-10, _draw_system_point_direction, draws=10)
def _trace_identity(case) -> float:
    """xi . M xi against Tr(s^2), s the canonical symbol at xi."""
    sys, x, xi = case
    s = np.asarray(symbol(canonicalize(sys), x, xi))
    quad = float(xi @ velocity_matrix(sys, x) @ xi)
    return abs(quad - float(np.trace(s @ s).real)) / max(abs(quad), 1e-300)


@_register("velocity.symbol_norm_sandwich", 1e-10, _draw_system_point_direction, draws=10)
def _symbol_norm_sandwich(case) -> float:
    """xi . M xi / k <= |s|^2 <= xi . M xi, s the canonical symbol at xi."""
    sys, x, xi = case
    quad = float(xi @ velocity_matrix(sys, x) @ xi)
    n2 = op_norm(np.asarray(symbol(canonicalize(sys), x, xi))) ** 2
    scale = max(quad, 1e-300)
    return max((quad / sys.k - n2) / scale, (n2 - quad) / scale)


@_register("velocity.speed_bracket_order", 1e-10, _draw_system_point, draws=6)
def _speed_bracket_order(case) -> float:
    """lower <= upper, Fattorini r <= upper and lower <= sqrt(d) r."""
    sys, x = case
    br = chernoff_c(sys, x)
    r = fattorini_r(sys, x)
    scale = max(br.upper, 1e-300)
    return max(br.lower - br.upper, r - br.upper, br.lower - math.sqrt(sys.d) * r) / scale


@_register("velocity.scaling_covariance", 1e-12, _draw_scaled_system, draws=6)
def _scaling_covariance(case) -> float:
    """Scaling every A^j by s scales M by s^2."""
    sys, scaled, s, x = case
    M1 = velocity_matrix(sys, x)
    M2 = velocity_matrix(scaled, x)
    return float(np.linalg.norm(M2 - s**2 * M1)) / max(float(np.linalg.norm(M2)), 1e-300)


def _draw_telegraph_majorant(rng) -> VelocityField:
    sys = telegraph("1 + 0.5*sin(3*x)", "2 - x")
    return majorant(VelocityField.from_system(sys, Grid(sys.domain, (64,))), 0.1)


_register("velocity.majorant_dominates", 1e-9, _draw_telegraph_majorant)(majorant_deficit)


# --- geometry ---------------------------------------------------------------

def _draw_triangle(rng):
    """(constant random metric on a 24^2 grid, two nodes)."""
    grid = Grid(BoxDomain((0.0, 0.0), (1.0, 1.0)), (24, 24))
    G = _random_spd(rng, 2)
    metric = MetricField(grid, np.broadcast_to(G, grid.shape + (2, 2)).copy())
    return metric, _random_node(rng, grid.shape), _random_node(rng, grid.shape)


@_register("geometry.triangle_inequality", 1e-9, _draw_triangle)
def _triangle_inequality(case) -> float:
    """d_a <= d_a(b) + d_b at every node, relative to the largest d_a."""
    metric, a, b = case
    da = lattice_geodesic(metric, [a]).values
    db = lattice_geodesic(metric, [b]).values
    return float((da - (da[b] + db)).max() / max(da.max(), 1e-300))


def _draw_identity_lattice(rng):
    """(lattice distances from the centre node under the identity metric on
    the unit square at 33^2, centre node)."""
    grid = Grid(BoxDomain((0.0, 0.0), (1.0, 1.0)), (33, 33))
    metric = MetricField(grid, np.broadcast_to(np.eye(2), grid.shape + (2, 2)).copy())
    return lattice_geodesic(metric, [(16, 16)]), (16, 16)


@_register("geometry.stencil_consistency_bound", 1e-12, _draw_identity_lattice)
def _stencil_consistency_bound(case) -> float:
    """Largest lattice-to-Euclidean distance ratio from the source, minus the
    stencil's consistency bound (for distances under an identity metric)."""
    dist, source = case
    grid = dist.grid
    eu = np.linalg.norm(grid.coords() - grid.node_coords(source), axis=-1)
    mask = eu > 0
    return float((dist.values[mask] / eu[mask]).max()) - dist.consistency_bound


# --- evolve -----------------------------------------------------------------

def _draw_telegraph_pair(rng):
    """(system, grid, order, u, v) with u and v zero on four nodes at each end."""
    sys = telegraph("1 + 0.5*x", "2 - x")
    grid = Grid(sys.domain, (48,))
    u = rng.standard_normal((48, 2)) + 1j * rng.standard_normal((48, 2))
    v = rng.standard_normal((48, 2)) + 1j * rng.standard_normal((48, 2))
    u[:4] = u[-4:] = v[:4] = v[-4:] = 0.0
    return sys, grid, 2, u, v


@_register("evolve.discrete_symmetry", 1e-11, _draw_telegraph_pair, draws=3)
def _discrete_symmetry(case) -> float:
    """<u, Op v> = <Op u, v> in the energy inner product, relative to <u, Op v>."""
    sys, grid, order, u, v = case
    op = DiscreteOperator(sys, grid, order)
    E = sys.E.on_grid(grid.axes)
    w = grid.trapezoid_weights()

    def ip(a, b):
        return complex((w * np.einsum("...a,...ab,...b->...", np.conj(a), E, b)).sum())

    lhs = ip(u, op.apply(v))
    return abs(lhs - ip(op.apply(u), v)) / max(abs(lhs), 1e-300)


def _draw_telegraph_pulse(rng):
    sys = telegraph("1 + 0.25*x", "1")
    return sys, gaussian_state(Grid(sys.domain, (256,)), [1.0, 0.0], [0.5], 0.04), 0.1


@_register("evolve.energy_conservation", 1e-8, _draw_telegraph_pulse)
def _energy_conservation(case) -> float:
    """Relative energy drift of ``integrate`` over (system, initial state, T)."""
    _, log = integrate(*case)
    return abs(log.energies[-1] / log.energies[0] - 1.0)


# --- cli --------------------------------------------------------------------

def _draw_scenario(rng) -> dict:
    return {
        "system": {"name": "telegraph", "params": {"L": "1 + 0.5*x", "C": "1"}},
        "domain": {"lower": [0.0], "upper": [1.0], "unbounded": ["none"]},
        "grid": {"nodes": [64]},
        "analysis": {"delta": 0.1, "cutoffs": 16, "stencil": 8,
                     "criterion": "velocity"},
        "output": {"dir": "out"},
    }


@_register("cli.scenario_normalization_idempotent", 0.0, _draw_scenario)
def _normalization_idempotent(raw) -> float:
    from .cli import normalize_scenario  # cli imports this module

    once = normalize_scenario(raw)
    return 0.0 if normalize_scenario(once) == once else 1.0


# --- geometry, lattice distances of a medium ---------------------------------
# Registered last: each check's generator is seeded by its registry index, so
# the checks above keep their draws.

def _draw_medium(rng) -> VelocityField:
    """Velocity field of a smooth isotropic Maxwell medium on a 24^2 grid."""
    a, b, c = rng.uniform(0.0, 0.4), rng.uniform(1.0, 5.0), rng.uniform(1.0, 5.0)
    sys = maxwell_isotropic(f"1 + {a:.4f}*sin({b:.4f}*x)*cos({c:.4f}*y)", "1",
                            domain=BoxDomain((0.0, 0.0), (1.0, 1.0)))
    return VelocityField.from_system(sys, Grid(sys.domain, (24, 24)))


def _draw_source_orders(rng):
    """(metric of a medium, 2 to 5 source nodes, the same sources reordered)."""
    metric = metric_from_velocity(majorant(_draw_medium(rng), 0.1))
    sources = [_random_node(rng, metric.grid.shape) for _ in range(int(rng.integers(2, 6)))]
    return metric, sources, [sources[i] for i in rng.permutation(len(sources))]


@_register("geometry.source_order_invariance", 0.0, _draw_source_orders, draws=4)
def _source_order_invariance(case) -> float:
    """Number of nodes whose distance bits depend on the order of the sources."""
    metric, sources, reordered = case
    a = lattice_geodesic(metric, sources).values
    b = lattice_geodesic(metric, reordered).values
    return float(np.count_nonzero(a.view(np.int64) != b.view(np.int64)))


def _draw_slacks(rng):
    """(velocity field of a medium, slacks lo < hi, source node)."""
    field = _draw_medium(rng)
    lo = float(rng.uniform(0.05, 0.4))
    return field, lo, float(rng.uniform(lo, 0.8)), _random_node(rng, field.grid.shape)


@_register("geometry.distance_monotone_in_slack", 1e-12, _draw_slacks, draws=4)
def _distance_monotone_in_slack(case) -> float:
    """Largest increase of the distance from a larger majorant slack, relative
    to the largest finite distance at the smaller slack."""
    field, lo, hi, source = case
    d_lo, d_hi = (lattice_geodesic(metric_from_velocity(majorant(field, delta)), [source]).values
                  for delta in (lo, hi))
    finite = np.isfinite(d_lo)
    return float((d_hi - d_lo)[finite].max() / max(d_lo[finite].max(), 1e-300))


# --- runner -----------------------------------------------------------------

def run_checks(pattern: str | None = None, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run the registered checks whose id matches the regex, in order.

    A check's residual is the largest over its draws, floored at zero; a
    check that raises, or whose residual is NaN, fails.
    """
    matcher = re.compile(pattern) if pattern else None
    out = []
    for idx, chk in enumerate(CHECKS):
        if matcher is not None and not matcher.search(chk.check_id):
            continue
        rng = np.random.default_rng([seed, idx])
        try:
            residuals = [chk.residual(chk.draw(rng)) for _ in range(chk.draws)]
        except Exception:  # a crashed check is a failed check, not a crash
            residuals = [math.inf]
        worst = math.nan if any(map(math.isnan, residuals)) else float(max(0.0, *residuals))
        out.append(CheckResult(chk.check_id, chk.module, worst, chk.tolerance))
    return out


def format_table(results: list[CheckResult]) -> str:
    """Fixed-width table: check id, module, worst residual, tolerance, status."""
    rows = [("check", "module", "residual", "tolerance", "status")]
    for r in results:
        rows.append((r.check_id, r.module, f"{r.residual:.3e}", f"{r.tolerance:.1e}", r.status))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    n_pass = sum(1 for r in results if r.passed)
    lines.append(f"{len(results)} checks: {n_pass} passed, {len(results) - n_pass} failed")
    return "\n".join(lines)
