"""Time evolution of symmetric hyperbolic systems on rectilinear grids.

The first-order system is integrated as psi' = -i * Op(psi) where Op is the
weighted operator E^{-1}[-(i/2) sum_j (A^j D_j + D_j A^j) + V] discretized
with antisymmetric central differences (2nd order by default, 4th behind a
flag) and zero exterior values.  The antisymmetry makes the discrete operator
symmetric in the energy inner product for states supported away from the grid
edge, so energy is conserved up to time-integration error; runs whose support
box approaches within four nodes of the edge are flagged
"boundary-contaminated".

The assembled matrix is the generator G = -i Op itself, so a time step
multiplies by G and nothing else.  G is real (float64) when E and A are real
and V is zero or purely imaginary, which holds for every built-in family
except Dirac, its canonical forms included; a real state then steps in
float64, at half the memory and flops, and any other state in complex128.
The weight E on the grid comes from ``systems.weight_on_grid``, the
E^{-1/2} check of the canonical sampler run at every node, so a weight is
admitted here exactly when the velocity field on that grid admits it, and
rejected with the same ``MatrixError``.  A weight E that is diagonal by
structure (``E.is_diagonal``) is kept as its diagonal alone, for the
assembly and for the energy density.

A run steps only the live block of G.  Components a and b are coupled when
some entry of G joins a row of component a to a column of component b; the
live components are the closure of the initial state's nonzero components
under that coupling, made symmetric, so they form a union of its connected
components and no live row of G has an entry in a dead column.  The state
steps as a flat vector on the live rows with G's principal sub-matrix on
them, and each product is a 1-D ``G @ v``.  This is exact: a live row keeps
its entries in their order, so every sum runs over the same terms in the
same order, and a dead row would sum only products with +-0 onto +0 and
stay +0 after the first step, which is what the full state holds there.
When every component is live (telegraph, Dirac, 3-D Maxwell) the live block
is G itself.  A 2-D Maxwell pulse in Ez, say, reaches only its TM block
(Ez, Hx, Hy), half of G.

Integrators: classic RK4 (default; tiny 5th-order-per-step energy drift) and
implicit midpoint behind a flag (conserves the energy quadratic form to
fixed-point tolerance, at the cost of an inner iteration).  On this linear
autonomous system an RK4 step is exactly R(dt G) psi with the stability
polynomial R(z) = 1 + z(1 + z/2(1 + z/3(1 + z/4))), evaluated by Horner's
rule in one of two ways.  On a 1-D grid R(dt G) stays banded, so it is
assembled once per run as a sparse matrix and each step is one product with
it; on 2-D and 3-D grids its fill-in outweighs that, so each step applies
Horner's rule to the state in place, four products with G.

Every run goes through one driver: ``_evolution`` checks the method, the
support threshold and the grid/order, plans the time step (before assembly,
so the velocity samples behind the CFL step are freed first), builds the
operator once, takes its live block and returns a generator of
``(i, t, values)``: the initial state, then the state after each step,
raising ``InstabilityError`` on a non-finite one; each yielded state is the
full one, its live values scattered into +0.  ``integrate`` records a log
row every few steps of it and ``arrival_time`` stops it once every probe is
reached.  Nothing is cached between runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, InstabilityError, ValidationError
from .grids import Grid, write_csv
from .systems import CoefficientSystem, ConstMatrixField, weight_on_grid
from .velocity import VelocityField

EDGE_MARGIN_NODES = 4
DEFAULT_SUPPORT_THRESHOLD = 1e-8
MIDPOINT_TOL = 1e-13
MIDPOINT_MAX_ITER = 60
LOG_ROWS = 1000
MAX_STEPS = 10**8

_DIFF_COEFFS = {2: (0.5,), 4: (2.0 / 3.0, -1.0 / 12.0)}


@dataclass
class WaveState:
    """Complex k-component field sampled on a grid at one instant."""

    grid: Grid
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != self.grid.d + 1 or v.shape[:-1] != self.grid.shape:
            raise ValidationError(
                f"state values must have shape {self.grid.shape + ('k',)}, "
                f"got {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise ValidationError("state contains non-finite entries")
        self.values = v

    @property
    def k(self) -> int:
        return self.values.shape[-1]

    def copy(self) -> "WaveState":
        return WaveState(self.grid, self.values.copy(), self.t)

    def to_csv(self, path) -> None:
        """Snapshot: node coordinates plus Re/Im per component."""
        d, k = self.grid.d, self.k
        header = [f"x{j + 1}" for j in range(d)]
        for c in range(k):
            header += [f"re_{c + 1}", f"im_{c + 1}"]
        re_im = np.ascontiguousarray(self.values).reshape(-1, k).view(np.float64)
        write_csv(path, header, re_im, self.grid.axes)


def gaussian_state(grid: Grid, components, center, sigma: float, t: float = 0.0) -> WaveState:
    """Gaussian pulse exp(-|x - center|^2 / (2 sigma^2)) times a component vector."""
    components = np.asarray(components, dtype=np.complex128)
    if components.ndim != 1:
        raise ValidationError("components must be a vector")
    center = np.asarray(center, dtype=float)
    if center.shape != (grid.d,):
        raise ValidationError(f"center must be a {grid.d}-vector")
    if not sigma > 0:
        raise ValidationError("sigma must be positive")
    bump = np.exp(-grid.squared_distances(center) / (2.0 * sigma**2))
    return WaveState(grid, bump[..., None] * components, t)


# --- the discrete operator -------------------------------------------------

def _stencil_pairs(d: int, axis: int, order: int):
    """(lo, hi, c_m) per stencil offset m: lo selects nodes n, hi nodes n + m e_axis."""
    everywhere = (slice(None),) * d
    for m, c in enumerate(_DIFF_COEFFS[order], start=1):
        lo = everywhere[:axis] + (slice(None, -m),) + everywhere[axis + 1:]
        hi = everywhere[:axis] + (slice(m, None),) + everywhere[axis + 1:]
        yield lo, hi, c


def _check_grid(sys: CoefficientSystem, grid: Grid, order: int) -> None:
    if grid.domain != sys.domain:
        raise ValidationError("grid domain does not match the system domain")
    if order not in _DIFF_COEFFS:
        raise ValidationError(f"difference order must be one of {sorted(_DIFF_COEFFS)}")


def _check_components(sys: CoefficientSystem, state: WaveState) -> None:
    if state.k != sys.k:
        raise ValidationError(f"state has {state.k} components, the system has {sys.k}")


def _density(values: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Pointwise energy density <psi, E psi> of a state array, one value per node.

    E is the weight as ``weight_on_grid`` gives it: a diagonal (one axis
    fewer than a matrix, so as many axes as the values) contracts as
    sum_a conj(psi_a) E_a psi_a, which gives the same bits as the full
    contraction with the zero off-diagonal entries.
    """
    if E.ndim == values.ndim:
        conj = np.conj(values) if np.iscomplexobj(values) else values
        return np.real(np.einsum("...a,...a,...a->...", conj, E, values))
    return np.real(np.einsum("...a,...ab,...b->...", np.conj(values), E, values))


def _matvec(matrix, x: np.ndarray) -> np.ndarray:
    """One sparse product with a flat state vector: every product a step takes."""
    return matrix @ x


class DiscreteOperator:
    """The discrete weighted operator, assembled once as its generator G = -i Op.

    Building one is the expensive part (field sampling, weight inversion,
    assembly); ``derivative`` (G v) and ``apply`` (Op v = i G v) are then one
    sparse matrix-vector product each, cheap enough to call thousands of
    times per run.

    Row (n, a) of ``generator`` holds, for each axis j and stencil offset m
    with weight c_m / h_j, the neighbour blocks

        E^{-1}(n) (-/+ c_m / (2 h_j)) (A^j(n) + A^j(n +/- m e_j))

    and the diagonal block -i E^{-1}(n) V(n); neighbours outside the grid are
    zero exterior values and have no entry.  A non-finite entry, from
    coefficients that overflow somewhere on the grid, is rejected with its
    node.  Entries whose imaginary parts are all zero are stored as float64.

    The weight is sampled and checked by ``weight_on_grid``: a node where E
    is not Hermitian positive definite, or is numerically singular, raises
    the kernel's ``MatrixError`` before anything is assembled.  A diagonal
    weight (``E.is_diagonal``) is inverted entry by entry and ``E_samples``
    keeps only its diagonal; every block, constant A^j or not, is then
    written from the coefficient's entries that are nonzero somewhere, each
    times the node's E^{-1} entry, with no dense per-node k-by-k block.  Any
    other weight is inverted per node with ``np.linalg.inv``, and its blocks
    are E^{-1} times the per-node k-by-k sums.
    """

    def __init__(self, sys: CoefficientSystem, grid: Grid, order: int = 2):
        from scipy import sparse  # imported here to keep it off start-up
        _check_grid(sys, grid, order)
        self.sys = sys
        self.grid = grid
        self.order = order
        d, k = grid.d, sys.k

        self.E_samples = E = weight_on_grid(sys.E, grid.axes)
        diagonal = sys.E.is_diagonal
        einv = 1.0 / np.real(E) if diagonal else np.linalg.inv(E)

        idx = np.arange(grid.node_count * k, dtype=np.int32).reshape(grid.shape + (k,))
        rows, cols, vals = [], [], []

        everywhere = (slice(None),) * d
        every_entry = np.divmod(np.arange(k * k), k)

        def coefficient(m):
            """Samples m of a field (one matrix, or k-by-k at every node) at every
            node, with the entries (a, b) of E^{-1} m they write: under a
            diagonal weight the entries nonzero somewhere, as planes grid +
            (entries,); under any other every entry, with m as k-by-k matrices."""
            at_nodes = np.broadcast_to(m, grid.shape + (k, k))
            if not diagonal:
                return at_nodes, every_entry
            a, b = np.nonzero(m.reshape(-1, k, k).any(axis=0))
            return at_nodes[..., a, b], (a, b)

        def add_block(dst, src, coeff, entries, scale):
            """Entries scale * E^{-1} coeff coupling nodes idx[dst] to idx[src]."""
            a, b = entries
            if diagonal:
                blk = einv[dst][..., a] * coeff
            else:
                blk = (einv[dst] @ coeff).reshape(coeff.shape[:-2] + (k * k,))
            nz = blk != 0
            rows.append(idx[dst][..., a][nz])
            cols.append(idx[src][..., b][nz])
            vals.append(scale * blk[nz])

        if not (isinstance(sys.V, ConstMatrixField) and not sys.V.mat.any()):
            add_block(everywhere, everywhere, *coefficient(sys.V.on_grid(grid.axes)), -1j)
        for j, (A, h) in enumerate(zip(sys.A, grid.spacing)):
            a, entries = coefficient(A.mat if isinstance(A, ConstMatrixField)
                                     else A.on_grid(grid.axes))
            for lo, hi, c in _stencil_pairs(d, j, order):
                a_sum = a[lo] + a[hi]
                scale = -0.5 * (c / h)
                add_block(lo, hi, a_sum, entries, scale)
                add_block(hi, lo, a_sum, entries, -scale)
            del a, a_sum  # free this axis's samples before sampling the next
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        bad = ~np.isfinite(vals)
        if bad.any():  # a run would step NaN only where the state reaches it
            node = np.unravel_index(int(rows[np.argmax(bad)]) // k, grid.shape)
            raise ValidationError(
                f"operator coefficients not finite at node {tuple(int(i) for i in node)}"
            )
        if np.iscomplexobj(vals) and not vals.imag.any():
            vals = vals.real
        self.generator = sparse.csr_array((vals, (rows, cols)), shape=(idx.size, idx.size))

    def derivative(self, values: np.ndarray) -> np.ndarray:
        """G v = -i Op v: the time derivative of a state array, in its dtype when G is real."""
        return (self.generator @ values.reshape(-1)).reshape(values.shape)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The discrete weighted operator applied to a state array."""
        want = self.grid.shape + (self.sys.k,)
        if values.shape != want:
            raise ValidationError(f"state values must have shape {want}, got {values.shape}")
        return 1j * self.derivative(values)

    def density(self, values: np.ndarray) -> np.ndarray:
        """Pointwise energy density <psi, E psi>, one value per node."""
        return _density(values, self.E_samples)


def energy(sys: CoefficientSystem, state: WaveState) -> float:
    """Trapezoid quadrature of the energy density <psi, E psi> over the grid."""
    _check_components(sys, state)
    dens = _density(state.values, weight_on_grid(sys.E, state.grid.axes))
    return float((state.grid.trapezoid_weights() * dens).sum())


def cfl_dt(sys: CoefficientSystem, grid: Grid, cfl: float) -> float:
    """Time step cfl * min(h) / max node speed, the speed from the velocity matrix."""
    if not 0.0 < cfl <= 1.0:
        raise ValidationError(f"cfl must be in (0, 1], got {cfl}")
    lam = float(VelocityField.from_system(sys, grid).lam_max.max())
    if lam <= 0.0:
        raise ValueError(
            "velocity matrix vanishes on the whole grid; no propagation speed "
            "to bound the step, set dt explicitly"
        )
    return cfl * min(grid.spacing) / math.sqrt(lam)


# --- support tracking ------------------------------------------------------

def _support_extent(grid: Grid, density: np.ndarray, ref: float, threshold: float):
    """(extent, box) of {density >= threshold^2 ref}, or None.

    extent holds the per-axis (lo, hi) node indices, box the matching node
    coordinates.
    """
    if ref <= 0.0:
        return None
    mask = density >= threshold**2 * ref
    if not mask.any():
        return None
    extent = []
    for axis in range(mask.ndim):
        other = tuple(i for i in range(mask.ndim) if i != axis)
        idx = np.flatnonzero(mask.any(axis=other) if other else mask)
        extent.append((int(idx[0]), int(idx[-1])))
    return extent, [(float(ax[lo]), float(ax[hi])) for ax, (lo, hi) in zip(grid.axes, extent)]


def support_box(sys: CoefficientSystem, state: WaveState, threshold: float = DEFAULT_SUPPORT_THRESHOLD,
                ref_density: float | None = None):
    """Smallest axis-aligned box holding all nodes of non-negligible energy density.

    A node counts when its density reaches threshold^2 times the reference
    density (the state's max by default; pass the initial state's max to track
    support along a run).  Returns per-axis (lo, hi) coordinates, or None for
    a state with no such nodes.
    """
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"support threshold must be in (0, 1), got {threshold}")
    _check_components(sys, state)
    dens = _density(state.values, weight_on_grid(sys.E, state.grid.axes))
    ref = float(dens.max()) if ref_density is None else float(ref_density)
    found = _support_extent(state.grid, dens, ref, threshold)
    return None if found is None else found[1]


def _node_margin(extent, shape) -> int:
    return min(
        min(lo, n - 1 - hi) for (lo, hi), n in zip(extent, shape)
    )


def _physical_margin(extent, grid: Grid) -> float:
    out = math.inf
    for ax, (lo, hi), wlo, whi in zip(
        grid.axes, extent, grid.domain.lower, grid.domain.upper
    ):
        out = min(out, float(ax[lo]) - wlo, whi - float(ax[hi]))
    return out


# --- integration -----------------------------------------------------------

@dataclass
class EvolutionLog:
    """Sampled time series of energy, support box, edge margin and peak value."""

    d: int
    dt: float
    steps: int
    method: str
    order: int
    sampled_every: int
    support_threshold: float
    ref_density: float
    times: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    boxes: list = field(default_factory=list)
    margins: list = field(default_factory=list)
    max_abs: list = field(default_factory=list)
    contaminated: bool = False

    def append(self, t, en, box, margin, peak):
        self.times.append(float(t))
        self.energies.append(float(en))
        self.boxes.append(box)
        self.margins.append(margin)
        self.max_abs.append(float(peak))

    def to_csv(self, path) -> None:
        header = ["t", "energy"]
        for j in range(self.d):
            header += [f"supp_lo_{j + 1}", f"supp_hi_{j + 1}"]
        header += ["boundary_margin", "max_abs"]
        table = np.full((len(self.times), len(header)), np.nan)
        table[:, 0] = self.times
        table[:, 1] = self.energies
        table[:, -1] = self.max_abs
        for row, box, margin in zip(table, self.boxes, self.margins):
            if box is not None:  # no support box: its columns and the margin stay NaN
                row[2:-2] = np.ravel(box)
                row[-2] = margin
        write_csv(path, header, table)


def _rk4_polynomial(apply, x, dt: float):
    """R(dt G) x for RK4's stability polynomial R(z) = 1 + z(1 + z/2(1 + z/3(1 + z/4))).

    ``apply(w)`` is G w, a new array.  On the linear autonomous system
    psi' = G psi one classic RK4 step is exactly R(dt G) psi; Horner's form
    takes four products, each scaled and added to in place.
    """
    w = x
    for j in (4, 3, 2, 1):
        w = apply(w)
        w *= dt / j
        w += x
    return w


def _rk4_propagator(G, dt: float, d: int):
    """One RK4 step of dt as a function of the flat state vector, G on a d-dim grid."""
    if d == 1:
        # On a 1-D grid R(dt G) stays banded: on the 2048-node telegraph grid it
        # has 4.5x G's nonzeros at order 2 (36,824 vs 8,188) and 7.4x at order
        # 4, so one product with it beats four with G.  In 2-D the fourth power
        # of the 5-point stencil couples 41 nodes per row; four products win.
        # Horner's rule on the sparse identity; a sparse sum orders its entries
        # by its first operand, so the identity stays first.
        from scipy import sparse
        eye = sparse.eye_array(G.shape[0], dtype=G.dtype, format="csr")
        R = eye
        for j in (4, 3, 2, 1):
            R = eye + (dt / j) * (G @ R)
        return lambda x: _matvec(R, x)
    return lambda x: _rk4_polynomial(lambda w: _matvec(G, w), x, dt)


def _midpoint_step(G, x: np.ndarray, dt: float) -> np.ndarray:
    y = x + dt * _matvec(G, x)
    scale = float(np.abs(x).max(initial=0.0))
    tol = MIDPOINT_TOL * max(1.0, scale)
    for _ in range(MIDPOINT_MAX_ITER):
        y_new = x + dt * _matvec(G, 0.5 * (x + y))
        gap = float(np.abs(y_new - y).max(initial=0.0))
        y = y_new
        if gap <= tol:
            return y
    raise ConvergenceError(
        f"implicit midpoint fixed point stalled at residual {gap:.3e}; "
        "reduce the time step"
    )


def _midpoint_propagator(G, dt: float, d: int):
    """One implicit midpoint step of dt as a function of the flat state vector."""
    return lambda x: _midpoint_step(G, x, dt)


_STEPPERS = {"rk4": _rk4_propagator, "midpoint": _midpoint_propagator}


def _live_block(G, k: int, values: np.ndarray):
    """(rows, block): the flat rows of the components a state reaches through G
    and G's principal sub-matrix on them; rows is None when every component is
    live, and block is then G itself.

    Component a reaches b when an entry of G joins a row of component a
    (rows n k + a) to a column of component b, or the other way round; the
    live components are the state's nonzero components closed under that.
    """
    live = (values.reshape(-1, k) != 0).any(axis=0)
    if not live.all():
        coupled = np.zeros((k, k), dtype=bool)
        row_comp = np.repeat(np.arange(G.shape[0]) % k, np.diff(G.indptr))
        coupled[row_comp, G.indices % k] = True
        coupled |= coupled.T
        while True:
            reached = live | coupled[live].any(axis=0)
            if np.array_equal(reached, live):
                break
            live = reached
    if live.all():
        return None, G
    rows = np.flatnonzero(np.tile(live, G.shape[0] // k))
    return rows, G[rows][:, rows]


def _evolution(sys, state0, T, cfl, threshold, method, order, dt):
    """Check, plan and assemble one run; returns (op, dt, steps, states).

    states yields (i, t, values): the initial state (i = 0), then the state
    after each of the steps, raising InstabilityError on a non-finite one.
    The values are float64 when the generator and the initial state are both
    real, complex128 otherwise.  Only the live block (``_live_block``) steps,
    as a flat vector; each yielded state is the full array, a view of that
    vector when every component is live and its values scattered into +0
    otherwise.
    """
    if method not in _STEPPERS:
        raise ValidationError(f"method must be one of {sorted(_STEPPERS)}")
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"support threshold must be in (0, 1), got {threshold}")
    _check_grid(sys, state0.grid, order)
    _check_components(sys, state0)
    # plan first: the velocity samples behind the CFL step are freed before assembly
    if not T > 0:
        raise ValidationError("final time must be positive")
    if dt is None:
        dt = cfl_dt(sys, state0.grid, cfl)
    elif not dt > 0:
        raise ValidationError("dt must be positive")
    planned = T / dt - 1e-12
    if not planned <= MAX_STEPS:  # inf and NaN included
        raise ValidationError(
            f"final time T = {T:g} needs {planned:.3g} steps of dt = {dt:g}, "
            f"more than MAX_STEPS = {MAX_STEPS:.0e}"
        )
    steps = max(1, int(math.ceil(planned)))
    dt = T / steps
    op = DiscreteOperator(sys, state0.grid, order)
    rows, G = _live_block(op.generator, sys.k, state0.values)
    step = _STEPPERS[method](G, dt, state0.grid.d)

    def states():
        values = state0.values
        if G.dtype.kind == "f" and not values.imag.any():
            values = values.real.copy()
        yield 0, state0.t, values
        x = values.reshape(-1)
        if rows is not None:
            x = x[rows]
        for i in range(1, steps + 1):
            x = step(x)
            t = state0.t + i * dt
            if not np.all(np.isfinite(x)):
                raise InstabilityError(i, t, f"retry with a smaller cfl, e.g. {0.5 * cfl:g}")
            if rows is None:
                values = x.reshape(values.shape)
            else:
                values = np.zeros(values.shape, dtype=x.dtype)
                values.reshape(-1)[rows] = x
            yield i, t, values

    return op, dt, steps, states()


def integrate(sys: CoefficientSystem, state0: WaveState, T: float, cfl: float = 0.4,
              support_threshold: float = DEFAULT_SUPPORT_THRESHOLD, method: str = "rk4",
              order: int = 2, dt: float | None = None, log_every: int | None = None):
    """Integrate psi' = -i Op(psi) to time T; returns (final state, EvolutionLog).

    The log samples every max(1, steps // 1000) steps (or every ``log_every``
    steps when given) plus the initial and final instants.  A run whose
    support box comes within four nodes of the grid edge is flagged
    boundary-contaminated: zero exterior values then act as a hard wall.
    """
    grid = state0.grid
    op, dt, steps, states = _evolution(sys, state0, T, cfl, support_threshold,
                                       method, order, dt)
    stride = max(1, steps // LOG_ROWS) if log_every is None else max(1, int(log_every))
    weights = grid.trapezoid_weights()
    for i, t, values in states:
        if i % stride and i != steps:
            continue
        dens = op.density(values)
        if i == 0:
            log = EvolutionLog(
                d=grid.d, dt=dt, steps=steps, method=method, order=order,
                sampled_every=stride, support_threshold=support_threshold,
                ref_density=float(dens.max()),
            )
        en = float((weights * dens).sum())
        peak = np.abs(values).max(initial=0.0)
        found = _support_extent(grid, dens, log.ref_density, support_threshold)
        if found is None:
            log.append(t, en, None, math.nan, peak)
            continue
        extent, box = found
        log.append(t, en, box, _physical_margin(extent, grid), peak)
        if _node_margin(extent, grid.shape) < EDGE_MARGIN_NODES and not log.contaminated:
            log.contaminated = True
            if i == 0:
                warnings.warn(
                    f"initial support is within {EDGE_MARGIN_NODES} nodes of "
                    "the grid edge; boundary truncation may contaminate the run"
                )
            else:
                warnings.warn(
                    f"support box within {EDGE_MARGIN_NODES} nodes of the grid "
                    f"edge at t={t:.6g}; run flagged boundary-contaminated"
                )
    return WaveState(grid, values, t), log


def arrival_time(sys: CoefficientSystem, state0: WaveState, T: float, probes,
                 threshold: float = DEFAULT_SUPPORT_THRESHOLD, cfl: float = 0.4,
                 method: str = "rk4", order: int = 2, dt: float | None = None) -> np.ndarray:
    """First time each probe node's energy density exceeds the threshold cut.

    Probes are node index tuples; the cut is threshold^2 times the initial
    peak density, matching the support-box convention.  Probes reached at the
    start report ``state0.t``; entries stay +inf for probes never reached by
    time T.
    """
    grid = state0.grid
    probes = [tuple(int(i) for i in p) for p in probes]
    for p in probes:
        if len(p) != grid.d:
            raise ValidationError(f"probe {p} does not index a {grid.d}-d grid")
        if not all(0 <= i < n for i, n in zip(p, grid.shape)):
            raise ValidationError(f"probe {p} lies outside the grid of shape {grid.shape}")
    op, _, _, states = _evolution(sys, state0, T, cfl, threshold, method, order, dt)
    at = tuple(np.array(probes, dtype=np.intp).reshape(len(probes), grid.d).T)
    E_at = op.E_samples[at]
    out = np.full(len(probes), math.inf)
    for i, t, values in states:
        if i == 0:
            ref = float(op.density(values).max())
            if ref <= 0.0:
                break
            cutoff = threshold**2 * ref
        out[np.isinf(out) & (_density(values[at], E_at) >= cutoff)] = t
        if not np.isinf(out).any():
            break
    return out
