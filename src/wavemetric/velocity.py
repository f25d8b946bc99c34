"""Local propagation-speed data for weighted symmetric hyperbolic systems.

The central object is the velocity matrix: the d-by-d real symmetric matrix
with entries Tr(B^j B^l), where B^j are the first-order coefficients of the
canonical (identity-weight) form of the system.  Its quadratic form bounds
the squared norm of the principal symbol in any direction, so its square
root bounds every characteristic speed.

Scalar summaries live alongside it: the largest characteristic speed in a
fixed direction, the direction-free maximum over the unit sphere (returned
as a certified lower/upper bracket, since the true supremum of a matrix norm
over directions has no closed form when the coefficients do not commute),
the per-axis coefficient-norm maximum, and a radial growth envelope for
unbounded domains.  Each pointwise function takes a point (d,) or a stack
(..., d); all of them, the envelope and the grid field read the canonical
coefficients through one batched sampler, ``systems.canonical_planes``, as
the sample planes of their nonzero entries.  One trace kernel sums
Tr(B^j B^l) from those planes for points, grids and the speed bounds, in
the order ``np.einsum("...ab,...ba->...")`` sums the dense stacks: each
row's terms in column order, then the row sums in row order onto +0.  So a
point and a grid node agree bit for bit, and a diagonal weight costs only
the products of the coefficients' nonzero entries.

``VelocityField`` holds the matrices of a grid at one of two shapes:
grid.shape + (d, d), one matrix per node, or (1,)*d + (d, d), one matrix
for every node, when the coefficients read no coordinate (the canonical
planes have S = ()).  Everything derived from a field, its eigenvalue
bounds, its majorant, the metric and the lattice graph weights, keeps the
field's shape through numpy broadcasting, on the one code path for both
shapes; a constant field's node gives the bits every node of the full
stack would.  Only what writes one row per node, ``to_csv`` and the
distance fields, expands it.

``majorant`` produces a node-wise upper bound that is smooth at the grid
scale: the sampled matrix is mollified with a separable binomial kernel
(entry plane by entry plane, skipping the planes that are zero everywhere),
inflated by a slack factor, and nudged by a tiny regularizing multiple of
the identity so that downstream metric inversion stays finite even where
the field degenerates.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import MajorantError, UnsupportedSystemError, ValidationError
from .grids import Grid, write_csv
from .matkernel import op_norm, sym_eigen
from .sampling import unit_directions
from .systems import CoefficientSystem, EntryPlanes, canonical_planes

__all__ = [
    "SpeedBracket",
    "VelocityField",
    "velocity_matrix",
    "char_speed",
    "chernoff_c",
    "fattorini_r",
    "radial_envelope",
    "majorant",
    "to_csv",
]

SpeedBracket = namedtuple("SpeedBracket", ["lower", "upper"])

MOLLIFIER = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
PSD_RTOL = 1e-12
MAJORANT_RTOL = 1e-10
EPS_REG_REL = 1e-12
EPS_REG_FLOOR = 1e-12
MAX_SLACK_DOUBLINGS = 3


def _check_inside(sys: CoefficientSystem, x) -> np.ndarray:
    """One point (d,) or a stack (..., d) of points, each strictly inside the domain."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    outside = ~np.asarray(sys.domain.contains(x, strict=True))
    if outside.any():
        raise ValidationError(f"point {x[outside][0]} is not inside the domain")
    return x


def _sample_inside(sys: CoefficientSystem, x) -> tuple[tuple[int, ...], list[EntryPlanes]]:
    """The shape S of a point (d,) or a stack S + (d,) inside the domain, and B^j there."""
    x = _check_inside(sys, x)
    return x.shape[:-1], canonical_planes(sys, tuple(np.moveaxis(x, -1, 0)))


def _at_points(value, shape: tuple[int, ...]):
    """value as a full array of the given shape; a float when the shape is ()."""
    value = np.asarray(value)
    value = value if value.shape == shape else np.broadcast_to(value, shape).copy()
    return float(value) if not shape else value


def _trace(P: EntryPlanes, Q: EntryPlanes):
    """Re Tr(P Q) per sample, from the planes of P and Q.

    The sum runs as ``np.einsum("...ab,...ba->...", P, Q).real`` runs it on
    the dense stacks: row a's terms P_ab Q_ba are added in column order b,
    then the row sums in row order onto +0, and a complex term is
    Re P_ab Re Q_ba - Im P_ab Im Q_ba.  A term with an unlisted entry is
    +-0 and is left out, which changes no bit of a sum that starts at +0.
    """
    cplx = np.iscomplexobj(P.values) or np.iscomplexobj(Q.values)
    find = {entry: m for m, entry in enumerate(Q.entries)}
    total, row, row_a = 0.0, None, None
    for (a, b), x in zip(P.entries, P.values):
        m = find.get((b, a))
        if m is None:
            continue
        y = Q.values[m]
        term = x.real * y.real - x.imag * y.imag if cplx else x * y
        if a == row_a:
            row += term
            continue
        if row is not None:
            total = total + row
        row, row_a = term, a
    return total if row is None else total + row


def _traces(planes: list[EntryPlanes]) -> np.ndarray:
    """The velocity matrices Tr(B^j B^l), shape S + (d, d), from the planes of the B^j."""
    d = len(planes)
    M = np.empty(np.broadcast_shapes(*(p.values.shape[1:] for p in planes)) + (d, d))
    for j in range(d):
        for l in range(j, d):
            M[..., j, l] = M[..., l, j] = _trace(planes[j], planes[l])
    return M


def velocity_matrix(sys: CoefficientSystem, x) -> np.ndarray:
    """The d-by-d matrix of traces Tr(B^j B^l) of canonical coefficients (..., d, d)."""
    shape, planes = _sample_inside(sys, x)
    return _at_points(_traces(planes), shape + (sys.d, sys.d))


def char_speed(sys: CoefficientSystem, x, n) -> float:
    """Largest characteristic speed in direction n (normalized internally), per point."""
    shape, planes = _sample_inside(sys, x)
    n = np.atleast_1d(np.asarray(n, dtype=float))
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        raise ValidationError("direction must be nonzero")
    n = n / norm
    return _at_points(op_norm(sum(c * p.dense() for c, p in zip(n, planes))), shape)


def _axis_norm_max(B: list[np.ndarray]):
    """max_j ||B^j|| per sample."""
    return functools.reduce(np.maximum, (op_norm(b) for b in B))


def _speed_upper(planes: list[EntryPlanes], B: list[np.ndarray]):
    """min(sqrt(lambda_max(M)), sqrt(d) max_j ||B^j||) per sample, M = Tr(B^j B^l);
    B holds the B^j of the planes as matrices."""
    lam_max = sym_eigen(_traces(planes))[..., -1]
    return np.minimum(np.sqrt(np.maximum(lam_max, 0.0)), math.sqrt(len(B)) * _axis_norm_max(B))


def fattorini_r(sys: CoefficientSystem, x) -> float:
    """Maximum over axes of the operator norm of the canonical coefficients, per point."""
    shape, planes = _sample_inside(sys, x)
    return _at_points(_axis_norm_max([p.dense() for p in planes]), shape)


def chernoff_c(sys: CoefficientSystem, x) -> SpeedBracket:
    """Bracket for the supremum of characteristic speeds over directions.

    The lower end samples the unit sphere (both signs in 1-D, 128 angles in
    2-D, 256 near-uniform points in 3-D); the upper end is the smaller of
    sqrt(largest eigenvalue of the velocity matrix) and sqrt(d) times the
    per-axis coefficient-norm maximum.  A stack (..., d) gives one pair per point.
    """
    shape, planes = _sample_inside(sys, x)
    B = [p.dense() for p in planes]
    # every direction at once: the symbols have shape (..., directions, k, k)
    dirs = unit_directions(sys.d)
    sym = sum(c[:, None, None] * b[..., None, :, :] for c, b in zip(dirs.T, B))
    lower = op_norm(sym).max(axis=-1)
    upper = np.maximum(_speed_upper(planes, B), lower)  # guard against rounding at the crossover
    return SpeedBracket(_at_points(lower, shape), _at_points(upper, shape))


def radial_envelope(sys: CoefficientSystem, radii, center=None) -> np.ndarray:
    """Nondecreasing envelope of speed upper bounds over spheres |x| = r.

    Only meaningful on fully unbounded domains (the growth of speeds toward
    infinity is what the envelope feeds into); shells may skip points inside
    an excluded ball.  The bound, the upper end of ``chernoff_c``, is read at
    every admissible shell point in one batched call.
    """
    if not sys.domain.fully_unbounded:
        raise UnsupportedSystemError(
            "the radial growth envelope applies to fully unbounded domains; "
            "for domains with finite boundary use the boundary distance probe"
        )
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) == 0:
        raise ValidationError("radii must be a non-empty 1-D sequence")
    if np.any(radii <= 0) or np.any(np.diff(radii) <= 0):
        raise ValidationError("radii must be positive and strictly increasing")
    center = np.zeros(sys.d) if center is None else np.asarray(center, dtype=float)
    shells = center + radii[:, None, None] * unit_directions(sys.d)
    inside = sys.domain.contains(shells, strict=True)
    empty = ~inside.any(axis=1)
    if empty.any():
        raise ValidationError(
            f"no admissible sample on the sphere of radius {radii[empty][0]} "
            "(inside the excluded region?)"
        )
    shape, planes = _sample_inside(sys, shells[inside])
    upper = _speed_upper(planes, [p.dense() for p in planes])
    shell_max = np.zeros(len(radii))
    np.maximum.at(shell_max, np.nonzero(inside)[0], _at_points(upper, shape))
    return np.maximum.accumulate(shell_max)


# --- sampled field on a grid ------------------------------------------------

def _node_norms(samples: np.ndarray) -> np.ndarray:
    return np.linalg.norm(samples, axis=(-2, -1))


def _require_finite(samples: np.ndarray, shape: tuple[int, ...], what: str) -> None:
    """Raise ValidationError naming the first node, of the node shape ``shape``,
    whose samples hold a NaN or inf; for one matrix of every node, (1,)*d,
    that is the grid's first node."""
    bad = ~np.isfinite(samples).reshape(shape + (-1,)).all(axis=-1)
    if bad.any():
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
        raise ValidationError(f"{what} not finite at node {idx}")


def _node_shape(samples: np.ndarray, grid: Grid, what: str) -> tuple[int, ...]:
    """The node shape of a stack of d-by-d samples on grid: grid.shape, or
    (1,)*d for one matrix of every node; any other shape raises."""
    d = grid.d
    want = grid.shape + (d, d)
    if samples.shape not in (want, (1,) * d + (d, d)):
        raise ValidationError(f"{what} shape {samples.shape}, expected {want}")
    return samples.shape[:-2]


@dataclass
class VelocityField:
    """Velocity matrices sampled on a grid, optionally with a majorant.

    ``M_samples`` has shape grid.shape + (d, d), or (1,)*d + (d, d) when one
    matrix holds at every node (``from_system`` keeps a field whose
    coefficients read no coordinate at that shape); the majorant may take
    either shape too.  ``lam_max``, ``M_norms`` and ``majorant_norms`` have
    the node shape of their samples.  Construction validates symmetry,
    positive semi-definiteness to a relative tolerance, and (when present)
    that the majorant dominates the samples node-wise.  ``lam_max`` keeps
    each node's largest eigenvalue of M, its squared speed bound, and
    ``M_norms`` the node-wise Frobenius norms of M, taken once when M is
    validated, for the regularization scale of ``majorant``.
    """

    grid: Grid
    M_samples: np.ndarray
    majorant_samples: np.ndarray | None = None
    delta: float | None = None
    lam_max: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    M_norms: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    # (samples, their node norms): the norms belong to that very array
    _majorant_norms: tuple | None = dataclasses.field(init=False, repr=False,
                                                      compare=False, default=None)

    def __post_init__(self):
        M = np.asarray(self.M_samples, dtype=float)
        _require_finite(M, _node_shape(M, self.grid, "M_samples"), "M samples")
        asym = float(np.abs(M - np.swapaxes(M, -1, -2)).max())
        M = 0.5 * (M + np.swapaxes(M, -1, -2))
        self.M_norms = _node_norms(M)
        scale = max(float(self.M_norms.max()), 1e-300)
        if asym > 1e-10 * scale:
            raise ValidationError(f"M samples asymmetric: defect {asym:.3e}")
        w = sym_eigen(M)
        if float(w[..., 0].min()) < -PSD_RTOL * scale:
            raise ValidationError(
                f"M samples are not positive semi-definite: eigenvalue "
                f"{float(w[..., 0].min()):.3e} vs scale {scale:.3e}"
            )
        self.M_samples = M
        self.lam_max = w[..., -1].copy()
        if self.majorant_samples is not None:
            H = np.asarray(self.majorant_samples, dtype=float)
            _require_finite(H, _node_shape(H, self.grid, "majorant"), "majorant")
            self.majorant_samples = H
            _check_dominates(H, M, self.majorant_norms)

    @classmethod
    def from_system(cls, sys: CoefficientSystem, grid: Grid) -> "VelocityField":
        """The field of sys on grid: one matrix, (1,)*d + (d, d), when the
        canonical planes have S = (), else one per node."""
        coords = tuple(np.meshgrid(*grid.axes, indexing="ij", sparse=True))
        M = _traces(canonical_planes(sys, coords))
        nodes = (1,) * grid.d if M.ndim == 2 else grid.shape
        return cls(grid, _at_points(M, nodes + (grid.d, grid.d)))

    @property
    def d(self) -> int:
        return self.grid.d

    @property
    def majorant_norms(self) -> np.ndarray | None:
        """Node-wise Frobenius norms of ``majorant_samples`` (None without a
        majorant), for the regularization floor of ``metric_from_velocity``.

        Taken once per samples array: after a caller assigns new samples
        the norms are theirs, not the replaced array's.
        """
        H = self.majorant_samples
        if H is None:
            return None
        if self._majorant_norms is None or self._majorant_norms[0] is not H:
            self._majorant_norms = (H, _node_norms(H))
        return self._majorant_norms[1]


def _domination_gap(H: np.ndarray, M: np.ndarray,
                    H_norms: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Node-wise smallest eigenvalue of H - M and the norm of H (floored at
    1e-300) it is measured against; domination may fall short by
    ``MAJORANT_RTOL`` of that norm.  ``H_norms`` are H's node norms when
    already taken."""
    if H_norms is None:
        H_norms = _node_norms(H)
    return sym_eigen(H - M)[..., 0], np.maximum(H_norms, 1e-300)


def _check_dominates(H: np.ndarray, M: np.ndarray, H_norms: np.ndarray) -> float:
    """Raise unless H - M is PSD node-wise (to tolerance); return worst margin."""
    gap, scale = _domination_gap(H, M, H_norms)
    margin = gap + MAJORANT_RTOL * scale
    worst = float(margin.min())
    if worst < 0.0:
        idx = tuple(int(i) for i in np.unravel_index(int(np.argmin(margin)), gap.shape))
        raise ValidationError(
            f"majorant fails to dominate at node {idx}: eigenvalue gap "
            f"{float(gap[idx]):.3e}"
        )
    return worst


def _smooth_axis(a: np.ndarray, axis: int) -> np.ndarray:
    pad = [(0, 0)] * a.ndim
    pad[axis] = (2, 2)
    ap = np.pad(a, pad, mode="edge")
    acc = np.zeros_like(a)
    sl = [slice(None)] * a.ndim
    for k, wk in enumerate(MOLLIFIER):
        sl[axis] = slice(k, k + a.shape[axis])
        acc += wk * ap[tuple(sl)]
    return acc


def _mollify(samples: np.ndarray, spatial_ndim: int) -> np.ndarray:
    """Two passes of the binomial kernel along each spatial axis of a stack
    of symmetric matrices, entry plane by entry plane.

    Only the upper-triangle planes that are not zero everywhere are
    smoothed, together, and mirrored into the lower triangle; the others
    stay +0, which is what smoothing a zero plane gives.  Smoothing is
    linear and entry-wise, so this has the bits of smoothing all d*d
    planes.  One matrix of every node, (1,)*d + (d, d), smooths as that one
    node: with edge padding it sees five equal samples along every axis, as
    every node of a plane holding one value everywhere does, so it gets the
    bits each node of the full stack would.
    """
    upper = zip(*np.triu_indices(samples.shape[-1]))
    live = [(i, j) for i, j in upper if samples[..., i, j].any()]
    out = np.zeros_like(samples)
    if live:
        # one contiguous plane each: _smooth_axis runs about half as fast on a
        # fancy-indexed gather, whose plane axis is last in shape but first in memory
        planes = np.stack([samples[..., i, j] for i, j in live])
        for _ in range(2):
            for ax in range(1, spatial_ndim + 1):
                planes = _smooth_axis(planes, ax)
        for (i, j), plane in zip(live, planes):
            out[..., i, j] = out[..., j, i] = plane
    return out


def majorant(field: VelocityField, delta: float) -> VelocityField:
    """Attach a smooth node-wise upper bound (1+delta)*(mollified M) + eps*I.

    The mollifier smooths only the entry planes of M that are not zero
    everywhere, so a diagonal M costs d planes, not d*d.  The majorant has
    M's shape, so a field of one matrix costs one node (see ``_mollify``).
    If domination fails at some node the slack is doubled, up to three times;
    the slack that finally worked is recorded on the returned field, a copy
    of ``field`` whose already validated M is not checked again.
    """
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"slack must lie in (0, 1), got {delta}")
    M = field.M_samples
    d = field.d
    norms = field.M_norms
    eps = max(EPS_REG_REL * float(norms.max()), EPS_REG_FLOOR)
    if float(norms.max()) == 0.0:
        warnings.warn(
            "velocity matrix vanishes on the whole grid; majorant degenerates "
            "to the regularization floor and the induced metric is meaningless",
            stacklevel=2,
        )
    smooth = _mollify(M, field.grid.d)
    eye = np.eye(d)
    cur = float(delta)
    for _ in range(MAX_SLACK_DOUBLINGS + 1):
        H = (1.0 + cur) * smooth + eps * eye
        H_norms = _node_norms(H)
        gap, scale = _domination_gap(H, M, H_norms)
        if float((gap + MAJORANT_RTOL * scale).min()) >= 0.0:
            out = copy.copy(field)
            out.majorant_samples, out._majorant_norms, out.delta = H, (H, H_norms), cur
            return out
        cur *= 2.0
    raise MajorantError(
        f"no majorant after raising slack to {cur / 2:g}: the sampled field "
        "varies too fast for this grid; refine the grid"
    )


def to_csv(field: VelocityField, path) -> None:
    """Write nodes and upper-triangle matrix entries as CSV.

    Columns: x1..xd, then M11, M12, ..., Mdd row-major over the upper
    triangle.  Full float64 precision (17 significant digits).
    """
    d = field.d
    rows, cols = np.triu_indices(d)
    header = [f"x{j + 1}" for j in range(d)]
    header += [f"M{i + 1}{j + 1}" for i, j in zip(rows, cols)]
    # a field of one matrix stays one: its entries broadcast to every node, uncopied
    M = np.broadcast_to(field.M_samples[..., rows, cols], field.grid.shape + (len(rows),))
    write_csv(path, header, M.reshape(-1, len(rows)), field.grid.axes)
