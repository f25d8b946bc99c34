"""Coefficient systems for first-order symmetric hyperbolic operators.

A system is the data (Omega, k, E, A^1..A^d, V): an open box domain (possibly
unbounded, possibly with an excluded ball), a state dimension, an SPD weight
matrix field E, Hermitian coefficient fields A^j, and a Hermitian zero-order
field V.  Entries are either constants or expressions in the coordinates
x, y, z.  Each matrix field has one batched evaluator, ``sample(coords)``;
points and tensor grids both go through it and agree bit for bit.

Every field also answers, from its structure alone, whether it is diagonal
(``is_diagonal``): a constant field whose off-diagonal entries are all zero,
or an expression field whose off-diagonal cells are all the literal 0.  A
diagonal field is read through ``sample_diagonal(coords)``, shape S + (k,);
an expression field then evaluates its diagonal cells only.  A field that
reads no coordinate, a constant field or an expression field none of whose
cells names one, samples as one matrix (k, k) (its diagonal (k,)) at any
coords, so the planes of a system built from such fields have S = ().

The canonical transform re-expresses a system with weight E in an equivalent
E = identity form: the state is multiplied pointwise by E^{1/2}, the first
order coefficients become E^{-1/2} A^j E^{-1/2}, and a zero-order Hermitian
term built from the gradient of E^{-1/2} appears.  ``canonical_planes``, the
one canonical sampler, samples and inverts E once for all the B^j and hands
each out as ``EntryPlanes``: the sample planes of its nonzero entries.
Under a diagonal E each A^j, constant or not, gives the planes of the
entries where A^j or its transpose is nonzero at some sample, formed entry
by entry with no k-by-k stack per sample; under any other E, B^j gives the
planes of its stack that are not zero everywhere.  ``canonical_A`` gives
the same B^j as matrices.  E^{-1/2} comes from ``spd_inv_sqrt``, the one
kernel for a point and a stack of samples (diag(E)^{-1/2} from the
diagonals alone, with no eigendecomposition, for a diagonal E), so a point
and a grid node agree bit for bit; the first sample in C order that is
non-finite, not Hermitian positive definite or numerically singular raises
the kernel's error, naming that sample's point.  Gradients come from an
analytic evaluator when supplied, otherwise from central finite differences
with step 1e-5 (scaled by axis extent), shrunk per sample near a bounded
side with one warning per evaluation; a sample on or outside the boundary
raises ``ValidationError``.

Whether the coefficients are admissible (Hermitian A^j and V, E positive
definite) is decided by the ``matkernel`` kernels alone: ``validate_system``
and the construction probes of the built-in families sample each field once
at all their Halton points and run it through ``hermitian_part``,
``spd_sqrt`` or ``spd_inv_sqrt``, so an input is rejected there exactly when
the kernel that later decomposes it would reject it at those points.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import dsl
from .errors import MatrixError, ValidationError
from .matkernel import HermitianMatrix, hermitian_part, spd_inv_sqrt, spd_sqrt
from .sampling import halton_unit

__all__ = [
    "BoxDomain",
    "MatrixField",
    "ConstMatrixField",
    "ExprMatrixField",
    "FuncMatrixField",
    "CoefficientSystem",
    "ValidationReport",
    "eval_coeffs",
    "symbol",
    "canonicalize",
    "canonical_A",
    "canonical_planes",
    "EntryPlanes",
    "zero_order_term",
    "validate_system",
    "telegraph",
    "maxwell_isotropic",
    "maxwell_anisotropic",
    "elastic_isotropic",
    "elastic",
    "dirac_free",
    "CURL_GENERATORS",
    "STRAIN_GENERATORS",
]

FD_STEP_BASE = 1e-5


# --- domains ---------------------------------------------------------------

@dataclass(frozen=True)
class BoxDomain:
    """Open box, with per-side unbounded flags and an optional excluded ball.

    lower/upper always hold finite numbers used as the sampling window; a side
    flagged unbounded keeps its window value but is not treated as a true
    boundary (infinite values are accepted there too, but then no grid can be
    placed).  The excluded ball, when present, is part of the boundary.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    unbounded_lower: tuple[bool, ...] = ()
    unbounded_upper: tuple[bool, ...] = ()
    excluded_ball: tuple[tuple[float, ...], float] | None = None

    def __post_init__(self):
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        if len(lower) != len(upper) or not lower:
            raise ValueError("lower and upper must be equal-length, non-empty")
        d = len(lower)
        ulo = tuple(self.unbounded_lower) if self.unbounded_lower else (False,) * d
        uhi = tuple(self.unbounded_upper) if self.unbounded_upper else (False,) * d
        if len(ulo) != d or len(uhi) != d:
            raise ValueError("unbounded flags must match the dimension")
        for j, (lo, hi) in enumerate(zip(lower, upper)):
            if math.isinf(lo) and not ulo[j]:
                raise ValueError(f"axis {j}: infinite lower bound without unbounded flag")
            if math.isinf(hi) and not uhi[j]:
                raise ValueError(f"axis {j}: infinite upper bound without unbounded flag")
            if not lo < hi:
                raise ValueError(f"axis {j}: lower {lo} must be below upper {hi}")
        ball = self.excluded_ball
        if ball is not None:
            center, radius = ball
            center = tuple(float(v) for v in center)
            if len(center) != d:
                raise ValueError("excluded ball center must match the dimension")
            if not radius > 0:
                raise ValueError("excluded ball radius must be positive")
            ball = (center, float(radius))
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "unbounded_lower", ulo)
        object.__setattr__(self, "unbounded_upper", uhi)
        object.__setattr__(self, "excluded_ball", ball)

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def fully_unbounded(self) -> bool:
        return all(self.unbounded_lower) and all(self.unbounded_upper)

    def has_finite_boundary(self) -> bool:
        if self.excluded_ball is not None:
            return True
        return not (all(self.unbounded_lower) and all(self.unbounded_upper))

    def contains(self, x, strict: bool = True):
        """Whether the point x (d,) lies in the domain; a stack (..., d) gives a mask."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1], dtype=bool)
        for j in range(self.d):
            if not self.unbounded_lower[j]:
                out |= (x[..., j] < self.lower[j]) | (strict & (x[..., j] == self.lower[j]))
            if not self.unbounded_upper[j]:
                out |= (x[..., j] > self.upper[j]) | (strict & (x[..., j] == self.upper[j]))
        if self.excluded_ball is not None:
            center, radius = self.excluded_ball
            r = np.linalg.norm(x - np.asarray(center), axis=-1)
            out |= (r < radius) | (strict & (r == radius))
        return bool(~out) if out.ndim == 0 else ~out

    def boundary_distance(self, x) -> float:
        """Distance to the true boundary (bounded sides and excluded ball)."""
        x = np.asarray(x, dtype=float)
        dists = []
        for j in range(self.d):
            if not self.unbounded_lower[j]:
                dists.append(x[j] - self.lower[j])
            if not self.unbounded_upper[j]:
                dists.append(self.upper[j] - x[j])
        if self.excluded_ball is not None:
            center, radius = self.excluded_ball
            dists.append(float(np.linalg.norm(x - np.asarray(center))) - radius)
        return float(min(dists)) if dists else math.inf

    def center(self) -> np.ndarray:
        return 0.5 * (np.asarray(self.lower) + np.asarray(self.upper))

    def extent(self, j: int) -> float:
        return self.upper[j] - self.lower[j]


# --- matrix fields ---------------------------------------------------------

def _shape(coords) -> tuple[int, ...]:
    return np.broadcast_shapes(*(np.shape(c) for c in coords))


class MatrixField:
    """Base: a k-by-k matrix-valued function of position.

    Every field has one evaluator, ``sample(coords)``: it takes one coordinate
    array per axis, the arrays broadcasting together (scalars for one point, a
    sparse meshgrid for a tensor grid), and returns an array that broadcasts
    to their shape + (k, k).  ``__call__`` (one point) and ``on_grid`` (a
    tensor grid) are thin wrappers on it, so a point and a grid node get the
    same arithmetic and agree bit for bit.

    ``is_diagonal`` is true only when the field's structure makes every
    off-diagonal entry zero at every point; a field whose callable or
    formula happens to give a diagonal matrix still answers no.  Such a
    field is read through ``sample_diagonal(coords)``, which gives the
    diagonals alone, shape S + (k,) (or one that broadcasts to it).
    """

    k: int
    is_diagonal: bool = False

    def sample(self, coords: tuple) -> np.ndarray:
        raise NotImplementedError

    def sample_diagonal(self, coords: tuple) -> np.ndarray:
        """The diagonals of the samples at coords; the whole field only when ``is_diagonal``."""
        return np.diagonal(self.sample(coords), axis1=-2, axis2=-1)

    def __call__(self, x) -> np.ndarray:
        """The matrix at one point."""
        return self.sample(tuple(np.atleast_1d(np.asarray(x, dtype=float))))

    def on_grid(self, axes: tuple[np.ndarray, ...]) -> np.ndarray:
        """The matrices on the tensor grid of the axes, shape grid + (k, k)."""
        full = tuple(len(ax) for ax in axes) + (self.k, self.k)
        out = self.sample(tuple(np.meshgrid(*axes, indexing="ij", sparse=True)))
        return out if out.shape == full else np.broadcast_to(out, full).copy()


class ConstMatrixField(MatrixField):
    def __init__(self, mat):
        mat = np.asarray(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise MatrixError(f"constant field needs a square matrix, got {mat.shape}")
        dtype = np.complex128 if np.iscomplexobj(mat) else np.float64
        self.mat = mat.astype(dtype)
        self.mat.setflags(write=False)
        self.k = mat.shape[0]
        self.is_diagonal = not self.mat[~np.eye(self.k, dtype=bool)].any()

    def sample(self, coords) -> np.ndarray:
        return self.mat

    @property
    def is_identity(self) -> bool:
        return bool(np.array_equal(self.mat, np.eye(self.k)))


def _is_literal_zero(cell) -> bool:
    """Whether an expression-field cell is the constant 0, as a number or a literal."""
    if isinstance(cell, dsl.Num):
        cell = cell.value
    return isinstance(cell, (float, complex)) and cell == 0


class ExprMatrixField(MatrixField):
    """Entries are parsed expressions or numeric constants."""

    def __init__(self, entries):
        rows = [list(r) for r in entries]
        k = len(rows)
        if any(len(r) != k for r in rows):
            raise MatrixError("expression field needs a square entry table")
        self.k = k
        self.entries = []
        self.sources = []
        complex_const = False
        for r in rows:
            erow, srow = [], []
            for cell in r:
                if isinstance(cell, str):
                    erow.append(dsl.parse(cell))
                    srow.append(cell)
                elif isinstance(cell, dsl.Expr):
                    erow.append(cell)
                    srow.append("")
                else:
                    val = complex(cell)
                    if val.imag != 0.0:
                        complex_const = True
                        erow.append(val)
                    else:
                        erow.append(val.real)
                    srow.append("")
            self.entries.append(erow)
            self.sources.append(srow)
        self.dtype = np.complex128 if complex_const else np.float64
        self.is_diagonal = all(
            _is_literal_zero(self.entries[i][j]) for i in range(k) for j in range(k) if i != j
        )
        # no cell reads a coordinate: one matrix samples the whole field
        self._constant = not any(isinstance(cell, dsl.Expr) and dsl.expr_variables(cell)
                                   for row in self.entries for cell in row)

    def _cell(self, i: int, j: int, coords):
        cell = self.entries[i][j]
        if isinstance(cell, dsl.Expr):
            cell = dsl.eval_expr(cell, coords, source=self.sources[i][j])
        return cell

    def _sample_shape(self, coords) -> tuple[int, ...]:
        return () if self._constant else _shape(coords)

    def sample(self, coords) -> np.ndarray:
        out = np.empty(self._sample_shape(coords) + (self.k, self.k), dtype=self.dtype)
        for i in range(self.k):
            for j in range(self.k):
                out[..., i, j] = self._cell(i, j, coords)
        return out

    def sample_diagonal(self, coords) -> np.ndarray:
        """The diagonal cells only, each evaluated into one contiguous plane:
        the (k,) + S buffer is returned as its S + (k,) view."""
        out = np.empty((self.k,) + self._sample_shape(coords), dtype=self.dtype)
        for i in range(self.k):
            out[i] = self._cell(i, i, coords)
        return np.moveaxis(out, 0, -1)


class FuncMatrixField(MatrixField):
    """Wraps an arbitrary callable point -> matrix.

    The callable sees one point at a time, so ``sample`` loops over the
    points; it is the only field that does.
    """

    def __init__(self, fn, k: int):
        self.fn = fn
        self.k = int(k)

    def sample(self, coords) -> np.ndarray:
        points = np.stack(np.broadcast_arrays(*coords), axis=-1)
        mats = [np.asarray(self.fn(x)) for x in points.reshape(-1, len(coords))]
        for out in mats:
            if out.shape != (self.k, self.k):
                raise MatrixError(
                    f"field callable returned shape {out.shape}, wanted {(self.k, self.k)}"
                )
        return np.stack(mats).reshape(points.shape[:-1] + (self.k, self.k))


def _run(check, coords):
    """A (name, sampler, kernel) check on a field's samples at coords: the kernel's
    result, or its error naming the field and the first failing sample's point."""
    name, sample, kernel = check
    return kernel(sample(coords),
                  where=lambda bad: f" ({name} at {dsl.point_where(coords, bad)})")


def _weight_check(E: MatrixField):
    """The E^{-1/2} check; a diagonal E is sampled and checked as its diagonals."""
    if E.is_diagonal:
        return ("E", E.sample_diagonal, functools.partial(spd_inv_sqrt, diagonal=True))
    return ("E", E.sample, spd_inv_sqrt)


def _inv_sqrt_samples(E: MatrixField, coords) -> np.ndarray:
    """E^{-1/2} at every sample from the kernel ``spd_inv_sqrt``, shape S + (k, k).

    A diagonal E (``E.is_diagonal``) is sampled on its diagonal only, not
    decomposed, and gives the vectors diag(E)^{-1/2}, shape S + (k,).
    """
    return _run(_weight_check(E), coords)


def _inv_sqrt(E: MatrixField, coords) -> np.ndarray:
    """E^{-1/2} at every sample, shape S + (k, k)."""
    R = _inv_sqrt_samples(E, coords)
    return R[..., :, None] * np.eye(E.k) if E.is_diagonal else R


class EntryPlanes(NamedTuple):
    """Samples of a k-by-k matrix field as the planes of its nonzero entries.

    ``entries`` lists (row, column) pairs in row-major order and
    ``values[i]`` holds entry ``entries[i]`` at every sample, so ``values``
    has shape (len(entries),) + S, S = () for one constant matrix.  Every
    entry not listed is zero at every sample.
    """

    k: int
    entries: tuple[tuple[int, int], ...]
    values: np.ndarray

    def dense(self) -> np.ndarray:
        """The samples as matrices, shape S + (k, k)."""
        out = np.zeros(self.values.shape[1:] + (self.k, self.k), dtype=self.values.dtype)
        for (a, b), plane in zip(self.entries, self.values):
            out[..., a, b] = plane
        return out


def _stack_planes(B: np.ndarray, hermitian_part: bool = False) -> EntryPlanes:
    """B, or 0.5 (B + B^H) with ``hermitian_part``, as the planes of its entries
    that are nonzero somewhere: one constant matrix (k, k) gives its nonzero
    entries, a stack S + (k, k) the planes not zero at every sample, taken
    from one plane-major copy (a strided plane read one at a time is slow)."""
    k = B.shape[-1]
    if hermitian_part:
        Bt = B.swapaxes(-1, -2)
        B = B + (Bt.conj() if np.iscomplexobj(Bt) else Bt)
        B *= 0.5
    if B.ndim == 2:
        rows, cols = np.nonzero(B)
        return EntryPlanes(k, tuple(zip(rows.tolist(), cols.tolist())), B[rows, cols])
    shape = B.shape[:-2]
    flat = B.reshape(-1, k * k)
    live = np.flatnonzero(flat.any(axis=0))
    values = flat.T[live] if len(live) < k * k else np.ascontiguousarray(flat.T)
    entries = tuple(divmod(int(i), k) for i in live)
    return EntryPlanes(k, entries, values.reshape((len(live),) + shape))


def _diagonal_sandwich(r: np.ndarray, a: np.ndarray) -> EntryPlanes:
    """Hermitian part of diag(r) a diag(r), r = diag(E)^{-1/2} of shape S + (k,),
    for one matrix a or a stack S + (k, k): the planes of the entries (i, j)
    where a_ij or a_ji is nonzero at some sample, entry (i, j) being
    0.5 ((r_i a_ij) r_j + conj((r_j a_ji) r_i)), the products and sums the
    whole-stack formula makes there."""
    k = a.shape[-1]
    nz = (a != 0).reshape(-1, k, k).any(axis=0)
    rows, cols = np.nonzero(nz | nz.T)
    shape = np.broadcast_shapes(r.shape[:-1], a.shape[:-2])
    values = np.empty((len(rows),) + shape, dtype=np.result_type(r, a))
    for n, (i, j) in enumerate(zip(rows, cols)):
        ri, rj = r[..., i], r[..., j]
        back = (rj * a[..., j, i]) * ri
        plane = values[n, ...]
        np.add((ri * a[..., i, j]) * rj, back.conj() if np.iscomplexobj(back) else back,
               out=plane)
        plane *= 0.5
    return EntryPlanes(k, tuple(zip(rows.tolist(), cols.tolist())), values)


def _sandwiches(E: MatrixField, A_fields, coords) -> list[EntryPlanes]:
    """E^{-1/2} A^j E^{-1/2}, Hermitian part, for every field, E sampled and inverted once.

    A diagonal E is sampled on its diagonal and scales each A^j, constant
    or not, by r = diag(E)^{-1/2} on both sides entry by entry, so no
    k-by-k stack of E^{-1/2} or of B^j is formed (``_diagonal_sandwich``).
    Under any other E, B^j = R A^j R is formed as a whole stack and handed
    out by ``_stack_planes``.
    """
    R = _inv_sqrt_samples(E, coords)
    if E.is_diagonal:
        return [_diagonal_sandwich(R, A.sample(coords)) for A in A_fields]
    return [_stack_planes(R @ A.sample(coords) @ R, hermitian_part=True) for A in A_fields]


class _ElasticWeightField(MatrixField):
    """E = blockdiag(rho * C^{-1}, I_3) for the 9-component elastic state."""

    def __init__(self, rho_expr: dsl.Expr, rho_source: str, stiffness: MatrixField):
        self.rho_expr = rho_expr
        self.rho_source = rho_source
        self.stiffness = stiffness
        self.k = 9

    def sample(self, coords) -> np.ndarray:
        C = self.stiffness.sample(coords)
        rho = np.asarray(dsl.eval_expr(self.rho_expr, coords, source=self.rho_source))
        out = np.zeros(_shape(coords) + (9, 9))
        out[..., :6, :6] = rho[..., None, None] * np.linalg.inv(C)
        out[..., 6:, 6:] = np.eye(3)
        return out


class _CanonicalAField(MatrixField):
    """E^{-1/2} A^j E^{-1/2} for a canonicalized system."""

    def __init__(self, E: MatrixField, A: MatrixField):
        self.E = E
        self.A = A
        self.k = A.k

    def sample(self, coords) -> np.ndarray:
        return _sandwiches(self.E, (self.A,), coords)[0].dense()


class _CanonicalVField(MatrixField):
    """Zero-order term of the canonical form: gradient part plus E^{-1/2} V E^{-1/2}."""

    def __init__(self, E, A_fields, V, domain, E_grad):
        self.E = E
        self.A_fields = tuple(A_fields)
        self.V = V
        self.domain = domain
        self.E_grad = E_grad
        self.k = V.k

    def _gradients(self, coords) -> list[np.ndarray]:
        """d/dx_j of E^{-1/2}, analytic when available, else central differences.

        Where a bounded side is nearer than the step, the step becomes half
        the room left; one warning names the smallest such step.
        """
        if self.E_grad is not None:
            return [g.sample(coords) for g in self.E_grad]
        dom, grads, shrunk = self.domain, [], []
        for j, x in enumerate(coords):
            ext = dom.extent(j)
            step = FD_STEP_BASE * max(1.0, ext if math.isfinite(ext) else 1.0)
            lo = -math.inf if dom.unbounded_lower[j] else dom.lower[j]
            hi = math.inf if dom.unbounded_upper[j] else dom.upper[j]
            room = np.minimum(x - lo, hi - x)
            if not np.all(room > 0):
                at = dsl.point_where(coords, ~(room > 0))
                raise ValidationError(f"no room for a finite-difference step at point {at} "
                                      f"(axis {j}): it is not inside the domain")
            h = np.where(step >= room, 0.5 * room, step)
            if step >= np.min(room):
                shrunk.append((h.min(), j, dsl.point_where(coords, h == h.min())))
            plus, minus = list(coords), list(coords)
            plus[j], minus[j] = x + h, x - h
            diff = _inv_sqrt(self.E, tuple(plus)) - _inv_sqrt(self.E, tuple(minus))
            grads.append(diff / (2.0 * h)[..., None, None])
        if shrunk:
            h, j, x = min(shrunk, key=lambda item: item[0])
            warnings.warn(
                f"finite-difference step shrunk to {h:.3e} near the boundary "
                f"(axis {j}, point {x})",
                stacklevel=4,
            )
        return grads

    def sample(self, coords) -> np.ndarray:
        R = _inv_sqrt(self.E, coords)
        out = np.zeros(_shape(coords) + (self.k, self.k), dtype=np.complex128)
        for A, G in zip(self.A_fields, self._gradients(coords)):
            Aj = A.sample(coords)
            out += -0.5j * (R @ Aj @ G - G @ Aj @ R)
        out += R @ self.V.sample(coords) @ R
        out = 0.5 * (out + out.swapaxes(-1, -2).conj())
        return out if out.imag.any() else out.real.copy()


# --- the system ------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientSystem:
    """Immutable bundle (domain, k, E, A^1..A^d, V) plus optional metadata.

    ``E_grad``, when given, holds d evaluators for the gradient of E^{-1/2}
    used by the canonical transform.  ``kind``/``parts`` carry the structure
    the specialized velocity formulas need for the built-in families.
    """

    domain: BoxDomain
    k: int
    E: MatrixField
    A: tuple[MatrixField, ...]
    V: MatrixField
    E_grad: tuple[MatrixField, ...] | None = None
    label: str = ""
    kind: str = "custom"
    parts: dict = field(default=None, compare=False)
    canonical: bool = False

    def __post_init__(self):
        object.__setattr__(self, "A", tuple(self.A))
        if len(self.A) != self.domain.d:
            raise ValueError(
                f"need one first-order coefficient field per axis: got "
                f"{len(self.A)} for dimension {self.domain.d}"
            )
        for name, f in [("E", self.E), ("V", self.V)] + [
            (f"A[{j}]", a) for j, a in enumerate(self.A)
        ]:
            if f.k != self.k:
                raise ValueError(f"field {name} has size {f.k}, expected {self.k}")
        if self.E_grad is not None:
            grad = tuple(self.E_grad)
            if len(grad) != self.domain.d:
                raise ValueError("E_grad needs one evaluator per axis")
            object.__setattr__(self, "E_grad", grad)

    @property
    def d(self) -> int:
        return self.domain.d


def eval_coeffs(sys: CoefficientSystem, x):
    """(E, (A^1..A^d), V) at a point strictly inside the domain."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not sys.domain.contains(x, strict=True):
        raise ValueError(f"point {x} is not strictly inside the domain")
    return sys.E(x), tuple(A(x) for A in sys.A), sys.V(x)


def symbol(sys: CoefficientSystem, x, xi) -> HermitianMatrix:
    """Principal symbol sum_j xi_j A^j(x)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (sys.d,):
        raise ValueError(f"direction must be a {sys.d}-vector")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    acc = None
    for c, A in zip(xi, sys.A):
        term = c * A(x)
        acc = term if acc is None else acc + term
    return HermitianMatrix(acc)


def zero_order_term(sys: CoefficientSystem, x) -> np.ndarray:
    """The gradient-induced Hermitian zero-order term of the canonical form."""
    fld = _CanonicalVField(sys.E, sys.A, ConstMatrixField(np.zeros((sys.k, sys.k))),
                           sys.domain, sys.E_grad)
    return fld(x)


def _is_canonical(sys: CoefficientSystem) -> bool:
    """Flagged canonical, or a constant identity weight."""
    return sys.canonical or (isinstance(sys.E, ConstMatrixField) and sys.E.is_identity)


def canonical_planes(sys: CoefficientSystem, coords) -> list[EntryPlanes]:
    """The canonical B^j of sys at coords as ``EntryPlanes``, one per axis.

    The one canonical sampler: the same matrices as sampling
    ``canonicalize(sys).A``, but E is sampled and inverted once for all
    axes.  Under a diagonal E each A^j gives the planes of the entries
    (i, j) where A^j_ij or A^j_ji is nonzero at some sample; any other B^j
    gives the planes of its samples that are not zero everywhere, and a
    constant B^j its nonzero entries.
    """
    if _is_canonical(sys):
        return [_stack_planes(A.sample(coords)) for A in sys.A]
    return _sandwiches(sys.E, sys.A, coords)


def canonical_A(sys: CoefficientSystem, coords) -> list[np.ndarray]:
    """The canonical B^j of sys at coords as matrices, S + (k, k) each, S = () for a constant."""
    return [planes.dense() for planes in canonical_planes(sys, coords)]


def canonicalize(sys: CoefficientSystem) -> CoefficientSystem:
    """Equivalent system with identity weight.

    Already-canonical systems (flag set, or constant identity E) are returned
    with only the flag updated; fields are reused unchanged.
    """
    if sys.canonical:
        return sys
    if _is_canonical(sys):
        return replace(sys, canonical=True)
    label = f"{sys.label} (canonical)" if sys.label else "canonical"
    return CoefficientSystem(
        domain=sys.domain,
        k=sys.k,
        E=ConstMatrixField(np.eye(sys.k)),
        A=tuple(_CanonicalAField(sys.E, A) for A in sys.A),
        V=_CanonicalVField(sys.E, sys.A, sys.V, sys.domain, sys.E_grad),
        label=label,
        kind=sys.kind,
        parts=sys.parts,
        canonical=True,
    )


# --- validation ------------------------------------------------------------

@dataclass
class ValidationReport:
    ok: bool
    samples: int
    issues: list[str]

    def __str__(self):
        head = "PASS" if self.ok else "FAIL"
        lines = [f"validation {head}: {self.samples} sample points"]
        lines.extend(f"  issue: {s}" for s in self.issues)
        return "\n".join(lines)


def _sample_points(domain: BoxDomain, count: int) -> tuple[np.ndarray, ...]:
    """``count`` Halton points strictly inside the domain, one coordinate array per axis."""
    lower = np.asarray(domain.lower)
    pts = lower + halton_unit(8 * count + 64, domain.d) * (np.asarray(domain.upper) - lower)
    pts = pts[domain.contains(pts, strict=True)][:count]
    if len(pts) < count:
        raise ValidationError(
            f"could not draw {count} interior sample points (domain mostly excluded?)"
        )
    return tuple(pts.T)


def _failures(checks, coords):
    """The kernel error of each failing (name, sampler, kernel) check, in order; the
    kernels are ``hermitian_part``, ``spd_sqrt`` and ``spd_inv_sqrt``."""
    for check in checks:
        try:
            _run(check, coords)
        except MatrixError as exc:
            yield str(exc)


def validate_system(sys: CoefficientSystem, samples: int = 256) -> ValidationReport:
    """Spot-check the paper's symmetric-system hypothesis at Halton points.

    E must pass the E^{-1/2} kernel, each A^j and V its Hermitian test, and a
    stiffness part (elastic systems) the square-root kernel, all at every
    point; these are the kernels that later decompose the fields, so a system
    that passes is accepted wherever it is sampled.  Each failing field gives
    one issue, for its first failing point, in the order E, A[j], V, stiffness.
    """
    coords = _sample_points(sys.domain, samples)
    checks = [_weight_check(sys.E)]
    checks += [(f"A[{j}]", A.sample, hermitian_part) for j, A in enumerate(sys.A, 1)]
    checks.append(("V", sys.V.sample, hermitian_part))
    stiffness = (sys.parts or {}).get("stiffness")
    if stiffness is not None:
        checks.append(("stiffness", stiffness.sample, spd_sqrt))
    issues = list(_failures(checks, coords))
    return ValidationReport(ok=not issues, samples=samples, issues=issues)


# --- built-in families -----------------------------------------------------

def _parse_scalar(src) -> tuple[dsl.Expr, str]:
    if isinstance(src, dsl.Expr):
        return src, ""
    if isinstance(src, (int, float)):
        return dsl.Num(float(src)), str(src)
    return dsl.parse(src), src


def _positivity_probe(domain, name, exprs_with_src, count=8):
    """Cheap construction-time check that scalar coefficients are positive."""
    coords = _sample_points(domain, count)
    for expr, src in exprs_with_src:
        val = np.broadcast_to(dsl.eval_expr(expr, coords, source=src), coords[0].shape)
        bad = ~(val > 0)
        if bad.any():
            raise ValidationError(f"{name} must be positive: got {val[bad][0]:.6g} "
                                  f"at sampled point {dsl.point_where(coords, bad)}")


def _spd_probe(domain, parts, E: MatrixField, count=8):
    """Construction-time check of the named SPD fields E is built from, then of E.

    Each part must pass the square-root kernel and E the E^{-1/2} kernel at
    the sampled points, so that a weight built here is accepted wherever it
    is decomposed.  The first failure raises ``ValidationError`` with the
    kernel's message.
    """
    checks = [(name, fld.sample, spd_sqrt) for name, fld in parts] + [_weight_check(E)]
    failure = next(_failures(checks, _sample_points(domain, count)), None)
    if failure is not None:
        raise ValidationError(failure)


_OFFDIAG2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def telegraph(L="1", C="1", domain: BoxDomain | None = None) -> CoefficientSystem:
    """Lossless transmission line: state (current, voltage), weight diag(L, C)."""
    domain = domain or BoxDomain((0.0,), (1.0,))
    if domain.d != 1:
        raise ValueError("telegraph systems are one-dimensional")
    Le, Ls = _parse_scalar(L)
    Ce, Cs = _parse_scalar(C)
    _positivity_probe(domain, "L and C", [(Le, Ls), (Ce, Cs)])
    E = ExprMatrixField([[Le, 0.0], [0.0, Ce]])
    return CoefficientSystem(
        domain=domain,
        k=2,
        E=E,
        A=(ConstMatrixField(_OFFDIAG2),),
        V=ConstMatrixField(np.zeros((2, 2))),
        label="telegraph",
        kind="telegraph",
        parts={"L": (Le, Ls), "C": (Ce, Cs)},
    )


CURL_GENERATORS = (
    np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]]),
    np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]),
    np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
)


def _maxwell_A(d: int) -> tuple[ConstMatrixField, ...]:
    out = []
    for j in range(d):
        a = CURL_GENERATORS[j]
        A = np.zeros((6, 6))
        A[:3, 3:] = -a
        A[3:, :3] = -a.T
        out.append(ConstMatrixField(A))
    return tuple(out)


def _maxwell_system(eps_field, mu_field, domain, label) -> CoefficientSystem:
    if domain.d not in (2, 3):
        raise ValueError(
            "electromagnetic systems need d=2 (fields independent of the third "
            "coordinate) or d=3"
        )
    entries = [[0.0] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            entries[i][j] = eps_field[i][j]
            entries[3 + i][3 + j] = mu_field[i][j]
    E = ExprMatrixField(entries)
    sysm = CoefficientSystem(
        domain=domain,
        k=6,
        E=E,
        A=_maxwell_A(domain.d),
        V=ConstMatrixField(np.zeros((6, 6))),
        label=label,
        kind="maxwell",
        parts={
            "eps": ExprMatrixField(eps_field),
            "mu": ExprMatrixField(mu_field),
        },
    )
    _spd_probe(domain, (("permittivity", sysm.parts["eps"]),
                        ("permeability", sysm.parts["mu"])), E)
    return sysm


def maxwell_isotropic(eps="1", mu="1", domain: BoxDomain | None = None) -> CoefficientSystem:
    domain = domain or BoxDomain((0.0,) * 3, (1.0,) * 3)
    ee, _ = _parse_scalar(eps)
    me, _ = _parse_scalar(mu)
    zero = 0.0
    eps_field = [[ee if i == j else zero for j in range(3)] for i in range(3)]
    mu_field = [[me if i == j else zero for j in range(3)] for i in range(3)]
    return _maxwell_system(eps_field, mu_field, domain, "maxwell isotropic")


def maxwell_anisotropic(eps, mu, domain: BoxDomain | None = None) -> CoefficientSystem:
    """eps and mu are symmetric 3x3 tables of expressions/constants (checked when built)."""
    domain = domain or BoxDomain((0.0,) * 3, (1.0,) * 3)
    eps_field = [[_parse_scalar(c)[0] for c in row] for row in eps]
    mu_field = [[_parse_scalar(c)[0] for c in row] for row in mu]
    if len(eps_field) != 3 or len(mu_field) != 3:
        raise ValueError("eps and mu must be 3x3 tables")
    return _maxwell_system(eps_field, mu_field, domain, "maxwell anisotropic")


STRAIN_GENERATORS = (
    np.array([[1.0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 1.0, 0], [0, 0, 0], [0, 0, 1.0]]),
    np.array([[0, 0, 0], [0, 1.0, 0], [0, 0, 0], [1.0, 0, 0], [0, 0, 1.0], [0, 0, 0]]),
    np.array([[0, 0, 0], [0, 0, 0], [0, 0, 1.0], [0, 0, 0], [0, 1.0, 0], [1.0, 0, 0]]),
)


def _elastic_A(d: int) -> tuple[ConstMatrixField, ...]:
    out = []
    for j in range(d):
        a = STRAIN_GENERATORS[j]
        A = np.zeros((9, 9))
        A[:6, 6:] = -a
        A[6:, :6] = -a.T
        out.append(ConstMatrixField(A))
    return tuple(out)


def _elastic_system(rho, stiffness_rows, domain, label) -> CoefficientSystem:
    if domain.d not in (1, 2, 3):
        raise ValueError("elastic systems support d=1, 2 or 3")
    rho_e, rho_s = _parse_scalar(rho)
    _positivity_probe(domain, "rho", [(rho_e, rho_s)])
    C = ExprMatrixField(stiffness_rows)
    if C.k != 6:
        raise ValueError("stiffness must be 6x6")
    E = _ElasticWeightField(rho_e, rho_s, C)
    _spd_probe(domain, (("stiffness", C),), E)
    return CoefficientSystem(
        domain=domain,
        k=9,
        E=E,
        A=_elastic_A(domain.d),
        V=ConstMatrixField(np.zeros((9, 9))),
        label=label,
        kind="elastic",
        parts={"rho": (rho_e, rho_s), "stiffness": C},
    )


def _num(v: float) -> dsl.Expr:
    return dsl.Num(float(v))


def _mul(a: dsl.Expr, b: dsl.Expr) -> dsl.Expr:
    return dsl.Bin("*", a, b)


def _div(a: dsl.Expr, b: dsl.Expr) -> dsl.Expr:
    return dsl.Bin("/", a, b)


def _add(a: dsl.Expr, b: dsl.Expr) -> dsl.Expr:
    return dsl.Bin("+", a, b)


def _sub(a: dsl.Expr, b: dsl.Expr) -> dsl.Expr:
    return dsl.Bin("-", a, b)


def elastic_isotropic(rho="1", K="1", mu="1", domain: BoxDomain | None = None) -> CoefficientSystem:
    """Isotropic stiffness from bulk modulus K and shear modulus mu."""
    domain = domain or BoxDomain((0.0,) * 3, (1.0,) * 3)
    Ke, Ks = _parse_scalar(K)
    me, ms = _parse_scalar(mu)
    _positivity_probe(domain, "K and mu", [(Ke, Ks), (me, ms)])
    diag = _add(Ke, _div(_mul(_num(4), me), _num(3)))
    off = _sub(Ke, _div(_mul(_num(2), me), _num(3)))
    rows = [[0.0] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            rows[i][j] = diag if i == j else off
    for i in range(3, 6):
        rows[i][i] = me
    return _elastic_system(rho, rows, domain, "elastic isotropic")


def elastic(rho, stiffness, domain: BoxDomain | None = None) -> CoefficientSystem:
    """General elastic medium from the 21 upper-triangle stiffness entries.

    ``stiffness`` lists the upper triangle of the symmetric 6x6 stiffness
    matrix row-major: (1,1)..(1,6), (2,2)..(2,6), ..., (6,6).
    """
    domain = domain or BoxDomain((0.0,) * 3, (1.0,) * 3)
    vals = list(stiffness)
    if len(vals) != 21:
        raise ValueError(f"need 21 stiffness entries, got {len(vals)}")
    exprs = [_parse_scalar(v)[0] for v in vals]
    rows = [[0.0] * 6 for _ in range(6)]
    pos = 0
    for i in range(6):
        for j in range(i, 6):
            rows[i][j] = exprs[pos]
            rows[j][i] = exprs[pos]
            pos += 1
    return _elastic_system(rho, rows, domain, "elastic (anisotropic)")


_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def dirac_free(radius: float = 0.1, half_width: float = 2.0) -> CoefficientSystem:
    """Free Dirac operator on R^3 minus a ball around the origin.

    The puncture at the origin is modeled as an excluded ball of the given
    radius, treated as boundary; the box faces are flagged unbounded and only
    delimit the sampling window.
    """
    domain = BoxDomain(
        lower=(-half_width,) * 3,
        upper=(half_width,) * 3,
        unbounded_lower=(True,) * 3,
        unbounded_upper=(True,) * 3,
        excluded_ball=((0.0, 0.0, 0.0), radius),
    )
    A = []
    for s in _SIGMA:
        alpha = np.zeros((4, 4), dtype=np.complex128)
        alpha[:2, 2:] = s
        alpha[2:, :2] = s
        A.append(ConstMatrixField(alpha))
    return CoefficientSystem(
        domain=domain,
        k=4,
        E=ConstMatrixField(np.eye(4)),
        A=tuple(A),
        V=ConstMatrixField(np.zeros((4, 4))),
        label="free Dirac (punctured)",
        kind="dirac",
    )
