"""Completeness probes for the metric induced by a velocity majorant.

The metric of interest is the inverse of the majorant field: large
propagation speeds make directions cheap, vanishing speeds make regions
expensive, and the domain is metrically complete exactly when the boundary
(or infinity) sits at infinite distance.  Whether a given improper integral
or distance sequence diverges is not decidable from finitely many samples,
so every probe returns a graded verdict: certified-divergent,
likely-divergent, likely-convergent, or inconclusive.

Distances are computed on the sampling lattice over an extended neighbor
stencil (two neighbors in 1-D, eight in 2-D, twenty-six in 3-D, with an
optional sixteen-neighbor stencil in 2-D) by a label-correcting search: each
round relaxes every node whose distance dropped since its last relaxation
with one numpy scatter-min, and once rounds start to relax nodes again it
defers the nodes above a moving distance bound (Delta-stepping; Meyer &
Sanders, J. Algorithms 49, 114, 2003).  Lattice shortest paths overestimate
continuum geodesics by at most a known stencil-dependent factor, recorded
on each result.  Fast marching is deliberately not used:
anisotropic metrics break the causality ordering it relies on.
"""

from __future__ import annotations

import heapq
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import dsl
from .errors import DomainEvalError, MajorantError, UnsupportedSystemError, ValidationError
from .grids import Grid, write_csv
from .matkernel import sym_eigen
from .velocity import EPS_REG_FLOOR, EPS_REG_REL, VelocityField, _node_shape, _require_finite

__all__ = [
    "STENCIL_BOUNDS",
    "VERDICT_GRADES",
    "MetricField",
    "DistanceField",
    "CompletenessVerdict",
    "stencil_offsets",
    "metric_from_velocity",
    "lattice_geodesic",
    "eikonal_arrival",
    "boundary_distance_probe",
    "ray_completeness",
    "power_law_classify",
    "combine_classifications",
    "node_boundary_distances",
]

# worst-case ratio of lattice distance to straight-line metric distance for a
# constant metric: the secant of half the largest angular gap of the stencil
STENCIL_BOUNDS = {
    2: 1.0,
    8: 1.0 / math.cos(math.pi / 8.0),
    16: 1.0 / math.cos(math.atan(0.5) / 2.0),
    26: math.sqrt(1.0 + (math.sqrt(2.0) - 1.0) ** 2 + (math.sqrt(3.0) - math.sqrt(2.0)) ** 2),
}

_DEFAULT_STENCIL = {1: 2, 2: 8, 3: 26}
_ALLOWED_STENCILS = {1: (2,), 2: (8, 16), 3: (26,)}

# edge-weight modes of the lattice graph
GEODESIC = 0
ARRIVAL_TIME = 1

VERDICT_GRADES = (
    "certified-divergent",
    "likely-divergent",
    "inconclusive",
    "likely-convergent",
)

CLASSIFY_WINDOW = 8
POWER_FIT_TOL = 0.01
GEOMETRIC_CONVERGENT_RATIO = 0.5
GEOMETRIC_DIVERGENT_RATIO = 0.9
# the ray quadrature's relative tolerance (QUADPACK's default epsrel) and its
# budget of interval halvings, shared by all cutoff segments of a route
RAY_RTOL = 1.49e-8
RAY_MAX_SUBDIVISIONS = 200


def stencil_offsets(d: int, stencil: int | None = None) -> tuple[int, np.ndarray]:
    """Neighbor offsets for the lattice graph; returns (stencil size, offsets)."""
    if stencil is None:
        stencil = _DEFAULT_STENCIL[d]
    if stencil not in _ALLOWED_STENCILS.get(d, ()):
        raise ValidationError(
            f"stencil {stencil} not available in {d}-D; "
            f"choose from {_ALLOWED_STENCILS.get(d, ())}"
        )
    if stencil == 2:
        offs = [(1,), (-1,)]
    elif stencil in (8, 26):
        offs = [o for o in itertools.product((-1, 0, 1), repeat=d) if any(o)]
    else:  # 16: the 8-neighborhood plus knight moves
        offs = [o for o in itertools.product((-1, 0, 1), repeat=2) if any(o)]
        offs += [
            o for o in itertools.product((-2, -1, 1, 2), repeat=2)
            if abs(o[0]) + abs(o[1]) == 3
        ]
    return stencil, np.array(sorted(offs), dtype=np.int64)


# --- fields ----------------------------------------------------------------

@dataclass
class MetricField:
    """SPD matrix per node; the inverse of a velocity majorant.

    ``G_samples`` has the shapes a ``VelocityField`` takes: grid.shape +
    (d, d), or (1,)*d + (d, d) for one matrix of every node.
    """

    grid: Grid
    G_samples: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        G = np.asarray(self.G_samples, dtype=float)
        nodes = _node_shape(G, self.grid, "G_samples")
        _require_finite(G, nodes, "metric")
        G = 0.5 * (G + np.swapaxes(G, -1, -2))
        w = sym_eigen(G)
        if float(w[..., 0].min()) <= 0.0:
            flat = int(np.argmin(w[..., 0]))
            idx = tuple(int(i) for i in np.unravel_index(flat, nodes))
            raise ValidationError(
                f"metric not positive definite at node {idx}: "
                f"eigenvalue {float(w[..., 0].min()):.3e}"
            )
        self.G_samples = G

    @property
    def d(self) -> int:
        return self.grid.d


def metric_from_velocity(fld: VelocityField) -> MetricField:
    """Invert the majorant node-wise, capping blowup where it degenerates.

    The cap's floor scales with the largest node norm of the majorant
    samples inverted here (``fld.majorant_norms``, taken once per samples array).
    The metric has the majorant's shape, so one matrix of every node is
    inverted once.  A diagonal majorant gives a diagonal metric, which is
    returned without ``MetricField``'s check; any other goes through the
    eigenvectors, G = u diag(c) u^T.
    """
    if fld.majorant_samples is None:
        raise MajorantError(
            "velocity field carries no majorant; call majorant() before "
            "building the metric"
        )
    H = fld.majorant_samples
    w, u = sym_eigen(H, vectors=True)
    norms = fld.majorant_norms
    floor = max(EPS_REG_REL * float(norms.max()), EPS_REG_FLOOR)
    degenerate = bool(np.any(w <= floor * (1.0 + 1e-9)))
    c = 1.0 / np.maximum(w, floor)
    G = np.zeros(H.shape)
    if u is None:  # a diagonal H: the sum below, over axes as eigenvectors, is diag(c)
        axes = np.arange(H.shape[-1])
        G[..., axes, axes] = c
    else:
        # G = u diag(c) u^T, accumulated over j in the order and with the
        # products (u_ij c_j) u_kj of einsum("...ij,...j,...kj->...ik"), so its
        # bits are the einsum's; the explicit sum takes half the einsum's time
        uc = u * c[..., None, :]
        for j in range(H.shape[-1]):
            G += uc[..., :, j, None] * u[..., None, :, j]
    if degenerate:
        warnings.warn(
            "velocity majorant nearly vanishes at some nodes; metric "
            f"eigenvalues capped at {1.0 / floor:.3e}, distances through "
            "the degenerate region are unreliable",
            stacklevel=2,
        )
    if u is not None:
        return MetricField(fld.grid, G, degenerate=degenerate)
    # diag(c) with finite c > 0 is exactly symmetric and positive definite,
    # all that MetricField's symmetrisation and eigen check would establish
    metric = object.__new__(MetricField)
    metric.grid, metric.G_samples, metric.degenerate = fld.grid, G, degenerate
    return metric


@dataclass
class DistanceField:
    """Per-node distance (or traversal time) from a source set."""

    grid: Grid
    values: np.ndarray
    source: str = ""
    stencil: int = 0
    consistency_bound: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValidationError(f"values shape {v.shape}, expected {self.grid.shape}")
        self.values = v

    def __getitem__(self, idx):
        return self.values[idx]

    def to_csv(self, path) -> None:
        d = self.grid.d
        table = np.column_stack([self.grid.coords().reshape(-1, d),
                                 self.values.reshape(-1)])
        write_csv(path, [f"x{j + 1}" for j in range(d)] + ["value"], table)


def node_boundary_distances(grid: Grid) -> np.ndarray:
    """Distance from each node to the true domain boundary (inf if none)."""
    dom = grid.domain
    out = np.full(grid.shape, np.inf)
    for j in range(grid.d):
        sh = [1] * grid.d
        sh[j] = -1
        ax = grid.axes[j].reshape(sh)
        if not dom.unbounded_lower[j]:
            out = np.minimum(out, np.broadcast_to(ax - dom.lower[j], grid.shape))
        if not dom.unbounded_upper[j]:
            out = np.minimum(out, np.broadcast_to(dom.upper[j] - ax, grid.shape))
    if dom.excluded_ball is not None:
        out = np.minimum(out, grid._ball_norms - dom.excluded_ball[1])
    return out


def _passable_mask(grid: Grid) -> np.ndarray:
    if grid.domain.excluded_ball is None:
        return np.ones(grid.shape, dtype=bool)
    return grid._ball_norms > grid.domain.excluded_ball[1]


def _normalize_sources(grid: Grid, sources) -> np.ndarray:
    if isinstance(sources, tuple) and all(isinstance(i, (int, np.integer)) for i in sources):
        sources = [sources]
    flat = []
    for s in sources:
        s = tuple(int(i) for i in np.atleast_1d(s))
        if len(s) != grid.d:
            raise ValidationError(f"source index {s} does not match grid rank {grid.d}")
        for i, n in zip(s, grid.shape):
            if not 0 <= i < n:
                raise ValidationError(f"source index {s} outside grid shape {grid.shape}")
        flat.append(int(np.ravel_multi_index(s, grid.shape)))
    if not flat:
        raise ValidationError("at least one source node is required")
    return np.asarray(flat, dtype=np.int64)


def _lattice_graph(grid, offsets, mode, mats, passable):
    """The lattice graph as ``(data, strides)``: one weight array per slot
    plus each offset's stride.

    ``data`` has shape (n, size): slot k of node u holds the weight of the
    edge u -> u + offsets[k], whose head is the flat node u + strides[k].
    An edge exists only when its head is on the grid and passable and its
    weight is defined, with q = dx . mid . dx for the midpoint (matrix
    average) ``mid`` of ``mats``: geodesic weights sqrt(q) with ``mats`` a
    metric G (a NaN weight is no edge), and times |dx|^2 / sqrt(q) with
    ``mats`` a velocity matrix M (dropped for q <= 0).  A slot without an
    edge holds +inf, so every node has the same number of slots and no head
    needs storing.  ``strides`` has the graph's index dtype, int32 below
    2**31 slots.

    The sorted offsets are mirrored, offsets[size-1-k] == -offsets[k], so
    each undirected edge is weighed once, from the first half of the
    offsets, and written into both of its slots, (tail, k) and
    (head, size-1-k), each where its own head is passable.  The two
    directions would get the same bits anyway: 0.5*(a + b) is commutative
    and (-x)*y*(-z) == x*y*z exactly.

    The metric (or M) is read as contiguous (a, b) entry planes, and q sums
    only the terms whose plane is not zero everywhere and whose offset
    components dx[a] and dx[b] are both nonzero: of the 234 terms of the
    26 offsets, 63 for a full metric and 27 for a diagonal one.  A skipped
    term is +-0 for finite samples whose midpoints stay finite, and adding
    +-0 to q, which starts at +0, leaves its bits unchanged; the fields that
    build the samples reject NaN and inf.  Each term is formed in one
    reused buffer with the products of ``q += dx[a] * (0.5*(mt + mh)) *
    dx[b]``, in that order.

    ``mats`` may hold one matrix for every node, shape (1,)*d + (d, d), as a
    constant ``VelocityField`` or ``MetricField`` does.  Its tail and head
    are then that matrix, so each offset gets one weight, formed by the same
    operations on one element, and only the passable mask varies from node
    to node when it is written into the slots.
    """
    shape = grid.shape
    n = grid.node_count
    size = len(offsets)
    itype = np.int32 if n * size < 2**31 else np.int64
    data = np.full(shape + (size,), np.inf)
    spacing = np.asarray(grid.spacing)
    planes = {}
    for a, b in itertools.product(range(grid.d), repeat=2):
        if mats[..., a, b].any():
            planes[a, b] = np.ascontiguousarray(mats[..., a, b])
    # one matrix of every node is every tail and every head of the planes
    one = mats.shape[:-2] != shape
    # q and the weight, a term and the kept mask, each in a buffer that holds
    # every offset's box of tails (one element for one matrix), and the edge
    # mask in one that holds every box of tails
    cells = 1 if one else n
    qbuf, tbuf, kbuf = np.empty(cells), np.empty(cells), np.empty(cells, dtype=bool)
    ebuf = np.empty(n, dtype=bool)
    for k in range(size // 2):
        off = offsets[k]
        tail = tuple(slice(max(-o, 0), m - max(o, 0)) for o, m in zip(off, shape))
        head = tuple(slice(max(o, 0), m - max(-o, 0)) for o, m in zip(off, shape))
        box = passable[tail].shape
        at_tail, at_head, qbox = ((), (), mats.shape[:-2]) if one else (tail, head, box)
        q, t, keep = (buf[:math.prod(qbox)].reshape(qbox) for buf in (qbuf, tbuf, kbuf))
        edge = ebuf[:math.prod(box)].reshape(box)
        dx = off * spacing
        moved = [a for a in range(grid.d) if dx[a] != 0.0]
        len2 = 0.0
        for a in moved:
            len2 += dx[a] * dx[a]
        with np.errstate(invalid="ignore", divide="ignore"):
            q.fill(0.0)
            for a in moved:
                for b in moved:
                    if (a, b) in planes:
                        np.add(planes[a, b][at_tail], planes[a, b][at_head], out=t)
                        np.multiply(t, 0.5, out=t)
                        np.multiply(t, dx[a], out=t)
                        np.multiply(t, dx[b], out=t)
                        np.add(q, t, out=q)
            if mode == GEODESIC:
                np.sqrt(q, out=q)
                np.isnan(q, out=keep)
                np.logical_not(keep, out=keep)
            else:
                np.greater(q, 0.0, out=keep)
                np.sqrt(q, out=q)
                np.divide(len2, q, out=q)
        for src, dst, slot in ((tail, head, k), (head, tail, size - 1 - k)):
            np.logical_and(keep, passable[dst], out=edge)
            np.copyto(data[src + (slot,)], q, where=edge)
    strides = offsets @ np.array([math.prod(shape[a + 1:]) for a in range(grid.d)])
    return data.reshape(n, size), strides.astype(itype)


def _shortest_distances(data, strides, src) -> np.ndarray:
    """Multi-source shortest distances over the slot weights of a lattice graph.

    Slot k of node u leads to u + strides[k], computed per round in the
    strides' dtype.  A slot without an edge holds +inf, so its head
    receives nothing wherever it lands: the distances sit inside a halo of
    max |strides| +inf entries on each side, which every such head stays
    within, so no head needs clipping.  Sources start at 0 even when
    impassable; unreached nodes stay +inf.  A round relaxes every out-slot
    of the nodes whose distance dropped since their last relaxation
    (``dist < last``), scattering dist[u] + w with one ``np.minimum.at``,
    until no distance drops.  Float addition is monotone and the weights
    are nonnegative, so any such label-correcting search ends at Dijkstra's
    fixed point, bit for bit: for each node, the least left-to-right sum
    over the paths from a source.

    The order only sets the work.  While each node is relaxed once, a round
    takes every dropped node.  A round that spends more than n/16 slot
    relaxations on nodes relaxed before, about what its own O(n) scan
    costs, sets ``delta`` to half its spread of distances, and later rounds
    take only the dropped nodes within ``delta`` of the least dropped
    distance (Delta-stepping); ``delta`` halves while the waste stays above
    n/16 and doubles once it falls below n/128.

    A round extends paths by one edge, so a chain would take one round per
    node: a 1-D line of n nodes, n/2 rounds of O(n) scans.  So when the
    front is at most two nodes per source, the two ends of a chain, and
    none was relaxed before, every slot is also followed on along its
    stride for ``hops`` edges, the weights summed in path order by a
    cumsum; ``hops`` doubles on each such round, up to about n/64 slot
    steps per round.  In 2-D and 3-D only the first and last rounds have
    such fronts.
    """
    n, size = data.shape
    pad = int(np.abs(strides).max())
    halo = np.full(n + 2 * pad, np.inf)
    dist = halo[pad:pad + n]
    dist[src] = 0.0
    shifted = strides + strides.dtype.type(pad)  # heads as positions in halo
    last = np.full(n, np.inf)  # each node's distance when its slots were last relaxed
    chain = 2 * len(set(src.tolist()))  # np.unique would import numpy.ma
    delta = np.inf
    hops = 1
    while True:
        dropped = np.flatnonzero(dist < last)
        if not dropped.size:
            return dist
        du = dist.take(dropped)
        front = dropped
        if delta < np.inf:
            now = du <= du.min() + delta
            front, du = dropped[now], du[now]
        again = np.count_nonzero(last.take(front) < np.inf)
        if 16 * size * again > n:
            delta = 0.5 * min(delta, du.max() - du.min())
        elif 128 * size * again < n and front.size < dropped.size:
            delta = 2.0 * delta if delta > 0.0 else np.inf
        last[front] = du
        heads = front.astype(strides.dtype)[:, None] + shifted
        cand = data.take(front, axis=0)
        cand += du[:, None]
        if front.size <= chain and not again:
            hops = min(2 * hops, max(2, n // (64 * front.size * size)))
            # ray[u, k, j] is the halo position j + 1 steps along slot k; a
            # step off the grid crosses a +inf slot, so clipping onto the grid
            # changes no finite sum
            ray = heads[..., None] + strides[:, None] * np.arange(hops)
            np.clip(ray, pad, pad + n - 1, out=ray)
            slots = ray[..., :-1] * size + (np.arange(size) - pad * size)[:, None]
            more = data.ravel().take(slots)
            more[..., 0] += cand
            np.cumsum(more, axis=-1, out=more)
            np.minimum.at(halo, ray[..., 1:].ravel(), more.ravel())
        np.minimum.at(halo, heads.ravel(), cand.ravel())


def lattice_geodesic(metric: MetricField, sources, *, stencil: int | None = None) -> DistanceField:
    """Shortest lattice distances under the node-sampled metric.

    Edge length between neighboring nodes is the quadratic form of the
    midpoint (matrix average) metric applied to the physical offset.
    """
    grid = metric.grid
    size, offsets = stencil_offsets(grid.d, stencil)
    src = _normalize_sources(grid, sources)
    graph = _lattice_graph(grid, offsets, GEODESIC, metric.G_samples, _passable_mask(grid))
    return DistanceField(
        grid,
        _shortest_distances(*graph, src).reshape(grid.shape),
        source=f"geodesic from {len(src)} node(s)",
        stencil=size,
        consistency_bound=STENCIL_BOUNDS[size],
    )


def eikonal_arrival(grid: Grid, speed: VelocityField, sources, *,
                    stencil: int | None = None) -> DistanceField:
    """First-arrival times for a front moving with the velocity field ``speed``.

    The directional speed along an edge is the square root of the
    velocity-matrix quadratic form; an isotropic medium of speed c is the
    field M = c^2 I.  Nodes whose speed scale sqrt(lam_max) falls below
    1e-12 of the maximum are impassable and stay at +inf.
    """
    if not isinstance(speed, VelocityField):
        raise ValidationError(
            f"arrival times need a VelocityField, got {type(speed).__name__}"
        )
    if speed.grid is not grid and speed.grid.shape != grid.shape:
        raise ValidationError("velocity field grid does not match")
    scale = np.sqrt(np.maximum(speed.lam_max, 0.0))
    passable = _passable_mask(grid) & (scale >= 1e-12 * float(scale.max()))
    size, offsets = stencil_offsets(grid.d, stencil)
    src = _normalize_sources(grid, sources)
    graph = _lattice_graph(grid, offsets, ARRIVAL_TIME, speed.M_samples, passable)
    return DistanceField(
        grid,
        _shortest_distances(*graph, src).reshape(grid.shape),
        source=f"arrival from {len(src)} node(s)",
        stencil=size,
        consistency_bound=STENCIL_BOUNDS[size],
    )


# --- divergence grading ----------------------------------------------------

@dataclass
class CompletenessVerdict:
    """Graded divergence evidence from a cutoff sequence."""

    classification: str
    criterion: str
    cutoffs: list
    integrals: list
    parameters: dict = field(default_factory=dict)

    @property
    def partial_integrals(self) -> list[tuple[float, float]]:
        return list(zip(self.cutoffs, self.integrals))

    def to_json(self) -> dict:
        return {
            "classification": self.classification,
            "criterion": self.criterion,
            "cutoffs": [float(c) for c in self.cutoffs],
            "integrals": [float(v) for v in self.integrals],
            "parameters": _json_safe(self.parameters),
        }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isfinite(v):
            return v
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


def combine_classifications(classifications) -> str:
    """Weakest grade wins: completeness needs every escape route divergent."""
    ranked = [VERDICT_GRADES.index(c) for c in classifications]
    if not ranked:
        raise ValueError("no classifications to combine")
    return VERDICT_GRADES[max(ranked)]


def _classify_increments(increments, total: float) -> tuple[str, dict]:
    """Grade a sequence of positive partial-sum increments.

    If the log2 ratios of consecutive increments are stable (spread within
    1%), the tail is a measured power law: exponent ≥ -0.01 means the sum
    grows at least logarithmically (certified-divergent), a decisively
    negative exponent gives a Richardson-extrapolated finite limit.  With no
    stable exponent the cruder geometric-ratio rules decide, and anything
    left over is inconclusive.
    """
    inc = np.asarray(increments, dtype=float)
    extras: dict = {}
    if inc.size < 3:
        return "inconclusive", {"diagnostic": "fewer than 3 increments"}
    w = inc[-CLASSIFY_WINDOW:]
    tiny = 1e-14 * max(abs(total), float(inc.max(initial=0.0)), 1e-300)
    if float(w.max()) <= tiny:
        extras["limit_estimate"] = float(total)
        return "likely-convergent", extras
    if float(w[-1]) <= tiny and float(w.min()) >= -tiny:
        # refinement stopped changing the answer: saturated at resolution
        extras["limit_estimate"] = float(total)
        extras["diagnostic"] = "increments saturated"
        return "likely-convergent", extras
    if float(w.min()) <= 0.0:
        return "inconclusive", {"diagnostic": "stalled or non-positive increments"}
    rho = np.log2(w[1:] / w[:-1])
    spread = float(rho.max() - rho.min())
    mean = float(rho.mean())
    extras["tail_exponent"] = mean
    extras["exponent_spread"] = spread
    if spread <= POWER_FIT_TOL:
        if mean >= -POWER_FIT_TOL:
            return "certified-divergent", extras
        q = 2.0**mean
        extras["limit_estimate"] = float(total + w[-1] * q / (1.0 - q))
        return "likely-convergent", extras
    ratios = w[1:] / w[:-1]
    if np.all(np.diff(w) >= -1e-12 * float(w.max())):
        return "likely-divergent", extras
    if float(ratios.max()) <= GEOMETRIC_CONVERGENT_RATIO:
        q = float(ratios.max())
        extras["limit_estimate"] = float(total + w[-1] * q / (1.0 - q))
        return "likely-convergent", extras
    if float(ratios.min()) >= GEOMETRIC_DIVERGENT_RATIO:
        return "likely-divergent", extras
    return "inconclusive", extras


def power_law_classify(p: float) -> str:
    """Analytic verdict for a speed vanishing like delta^p at the boundary."""
    return "divergent" if p >= 1.0 else "convergent"


def _cutoff_sequence(t0: float, t_end: float, n: int) -> list[float]:
    if math.isfinite(t_end):
        span = t_end - t0
        return [t_end - span * 0.5**k for k in range(1, n + 1)]
    if t0 > 0:
        return [t0 * 2.0**k for k in range(1, n + 1)]
    return [t0 + (2.0**k - 1.0) for k in range(1, n + 1)]


# --- adaptive Gauss-Kronrod quadrature --------------------------------------

# QUADPACK's dqk21 (Piessens et al., 1983) on [-1, 1]: the positive Kronrod
# nodes (descending) and their weights, then the centre weight.  The rule is
# symmetric about 0.
_KRONROD_X = np.array([
    0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
    0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
    0.2943928627014602, 0.14887433898163122])
_KRONROD_W = np.array([
    0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
    0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
    0.14277593857706009, 0.14773910490133849])
_KRONROD_W0 = 0.1494455540029169
# the embedded 10-point Gauss-Legendre rule, as float64 roots of P_10: four of
# them (+-0.865..., +-0.148...) differ from the Kronrod nodes in the last bit,
# so all ten are sampled apart
_GAUSS_X = np.array([0.9739065285171717, 0.8650633666889844, 0.6794095682990244,
                     0.4333953941292472, 0.14887433898163116])
_GAUSS_W = np.array([0.06667134430868714, 0.14945134915058053, 0.21908636251598224,
                     0.26926671930999674, 0.2955242247147533])
# all 31 sample points; GK21's weights on the first 21, GK21 - G10 on all 31
_GK_NODES = np.concatenate([_KRONROD_X, [0.0], -_KRONROD_X[::-1],
                            -_GAUSS_X, _GAUSS_X[::-1]])[:, None]
_GK_WEIGHTS = np.concatenate([_KRONROD_W, [_KRONROD_W0], _KRONROD_W[::-1]])
_GK_ERROR_WEIGHTS = np.concatenate([_GK_WEIGHTS, -_GAUSS_W, -_GAUSS_W[::-1]])


class _Region:
    """An interval with its GK21 estimate and error per output.

    On the heap the larger max |error| is "less", so it pops first; exact
    ties fall to the heap's own order, with no insertion counter.
    """

    __slots__ = ("a", "b", "estimate", "error", "key")

    def __init__(self, a, b, estimate, error):
        self.a, self.b, self.estimate, self.error = a, b, estimate, error
        self.key = np.max(np.abs(error))

    def __lt__(self, other):
        return self.key > other.key


def _gk21_regions(f, bounds) -> list[_Region]:
    """GK21 on each interval (a, b) of bounds, all sampled in one call of f."""
    n = len(_GK_NODES)
    nodes = np.concatenate([(_GK_NODES + 1.0) * ((b - a) * 0.5) + a for a, b in bounds])
    values = f(nodes)
    out = []
    for i, (a, b) in enumerate(bounds):
        fv = values[i * n:(i + 1) * n]
        scale = (b - a) / 2
        est = np.sum((_GK_WEIGHTS * scale)[:, None] * fv[:len(_GK_WEIGHTS)], axis=0)
        err = np.abs(np.sum((_GK_ERROR_WEIGHTS * scale)[:, None] * fv, axis=0))
        out.append(_Region(a, b, est, err))
    return out


def _gk21_adaptive(f, rtol: float, max_subdivisions: int):
    """Integrate a batched f over [0, 1]: (estimate, error, subdivisions).

    ``f`` maps nodes (n, 1) to values (n, m) and is integrated for all m
    outputs at once.  While some output misses ``rtol``, the interval with
    the largest max |error| is halved: the running sums subtract its
    estimate and error, then add those of the left and the right half.
    This is the arithmetic order of scipy's adaptive "gk21" rule, whose
    results it reproduces bit for bit.  Stops after ``max_subdivisions``
    (at least 1) halvings.
    """
    heap = _gk21_regions(f, [(0.0, 1.0)])
    # the running sums are new arrays, updated in place
    est = 0.0 + heap[0].estimate
    err = 0.0 + heap[0].error
    subdivisions = 0
    while np.any(err > rtol * np.abs(est)) and subdivisions < max_subdivisions:
        worst = heapq.heappop(heap)
        est -= worst.estimate
        err -= worst.error
        mid = (worst.a + worst.b) / 2
        for half in _gk21_regions(f, [(worst.a, mid), (mid, worst.b)]):
            est += half.estimate
            err += half.error
            heapq.heappush(heap, half)
        subdivisions += 1
    return est, err, subdivisions


def ray_completeness(
    speed,
    t0: float,
    t_end: float,
    *,
    n_cutoffs: int = 24,
    criterion: str = "ray-quadrature",
    extra_parameters: dict | None = None,
) -> CompletenessVerdict:
    """Grade divergence of the traversal-time integral of 1/speed.

    ``speed`` is a positive profile of the ray parameter: a DSL expression
    in x, or a callable taking an ndarray of ray parameters and returning
    the speeds there (that shape, or broadcastable to it).  ``t_end`` may be
    infinite.  The cutoff segments, approaching ``t_end`` geometrically, are
    mapped onto [0, 1] and integrated together by the adaptive 21-point
    Gauss-Kronrod loop, which halves the worst interval until every segment
    meets ``RAY_RTOL`` or ``RAY_MAX_SUBDIVISIONS`` halvings are spent; a
    segment missing the tolerance ends the partial integrals (inconclusive);
    otherwise ``_classify_increments`` grades the increments.
    """
    t0 = float(t0)
    t_end = float(t_end)
    if not t_end > t0:
        raise ValidationError(f"need t0 < t_end, got [{t0}, {t_end}]")
    if n_cutoffs < 4:
        raise ValidationError("need at least 4 cutoffs")
    if callable(speed):
        src = "<callable>"
    else:
        expr = dsl.parse(speed) if isinstance(speed, str) else speed
        free = dsl.expr_variables(expr)
        if not free <= {"x"}:
            raise ValidationError(
                f"ray speed must be a function of x alone, found {sorted(free)}"
            )
        src = speed if isinstance(speed, str) else dsl.to_text(expr)

        def speed(t: np.ndarray) -> np.ndarray:
            return dsl.eval_expr(expr, {"x": t}, source=src)

    cutoffs = _cutoff_sequence(t0, t_end, n_cutoffs)
    lo = np.array([t0] + cutoffs[:-1])
    width = np.array(cutoffs) - lo

    def inverse_speed(u: np.ndarray) -> np.ndarray:
        t = lo + width * u  # (nodes, 1) on [0, 1] -> (nodes, segments)
        v = np.broadcast_to(speed(t), t.shape)
        bad = ~(v > 0)
        if bad.any():
            raise DomainEvalError(
                "speed must stay positive along the ray",
                point=float(t[bad][0]),
                fragment=src,
            )
        return width / v

    est, err, subdivisions = _gk21_adaptive(inverse_speed, RAY_RTOL, RAY_MAX_SUBDIVISIONS)
    good = np.isfinite(est) & (err <= RAY_RTOL * np.abs(est))
    n_good = n_cutoffs if good.all() else int(np.argmin(good))
    integrals = np.cumsum(est[:n_good]).tolist()
    params = {"t0": t0, "t_end": t_end, "n_cutoffs": n_cutoffs, "speed": src}
    if extra_parameters:
        params.update(extra_parameters)
    if n_good < n_cutoffs:
        params["diagnostic"] = (
            f"segment {n_good + 1} [{lo[n_good]:.6g}, {cutoffs[n_good]:.6g}] missed "
            f"rtol {RAY_RTOL:g} after {subdivisions} subdivisions: estimate "
            f"{est[n_good]:.6g}, error {err[n_good]:.3g}")
        return CompletenessVerdict(
            "inconclusive", criterion, cutoffs[:n_good], integrals, params
        )
    inc = np.diff(np.asarray(integrals))
    cls, extras = _classify_increments(inc, integrals[-1])
    params.update(extras)
    return CompletenessVerdict(cls, criterion, cutoffs, integrals, params)


def boundary_distance_probe(
    metric: MetricField,
    probe,
    margins,
    *,
    stencil: int | None = None,
) -> tuple[list[tuple[float, float]], CompletenessVerdict]:
    """Distances from a probe point to shrinking bands along the boundary.

    For each margin m the reported distance is the metric distance from the
    probe to the nearest node lying within m of the true boundary.  The
    growth of that sequence as margins shrink geometrically is graded with
    the same rules as the ray quadrature: logarithmic or faster growth is
    divergence evidence, a finite limit means the boundary is metrically
    reachable.
    """
    grid = metric.grid
    dom = grid.domain
    if not dom.has_finite_boundary():
        raise UnsupportedSystemError(
            "domain has no finite boundary; use the radial growth envelope "
            "for behavior at infinity"
        )
    probe = np.atleast_1d(np.asarray(probe, dtype=float))
    if not dom.contains(probe, strict=True):
        raise ValidationError(f"probe point {probe} must lie inside the domain")
    m_arr = np.asarray(margins, dtype=float)
    if m_arr.ndim != 1 or len(m_arr) < 2:
        raise ValidationError("margins must be a 1-D sequence with at least 2 entries")
    if np.any(m_arr <= 0) or np.any(np.diff(m_arr) >= 0):
        raise ValidationError("margins must be positive and strictly decreasing")
    bdist = node_boundary_distances(grid)
    deepest = float(bdist[np.isfinite(bdist)].max())
    if float(m_arr[0]) >= deepest:
        raise ValidationError(
            f"margin {m_arr[0]:.6g} reaches the deepest interior node "
            f"({deepest:.6g} from the boundary); start below that"
        )
    src_idx = grid.nearest_node(probe)
    dfield = lattice_geodesic(metric, [src_idx], stencil=stencil)
    pairs: list[tuple[float, float]] = []
    for m in m_arr:
        mask = bdist <= m
        if not mask.any():
            raise ValueError(
                f"margin {m:.6g} captures no grid nodes; refine the grid or "
                "stop at a larger margin"
            )
        pairs.append((float(m), float(dfield.values[mask].min())))
    dists = np.asarray([p[1] for p in pairs])
    params = {
        "probe": [float(v) for v in probe],
        "stencil": dfield.stencil,
        "consistency_bound": dfield.consistency_bound,
    }
    if metric.degenerate:
        params["warnings"] = [
            "degenerate-metric: distances cross regions where the velocity "
            "majorant was capped"
        ]
    if not np.all(np.isfinite(dists)):
        params["diagnostic"] = "some margin bands are unreachable from the probe"
        verdict = CompletenessVerdict(
            "inconclusive", "boundary-distance", list(m_arr), list(dists), params
        )
        return pairs, verdict
    cls, extras = _classify_increments(np.diff(dists), float(dists[-1]))
    params.update(extras)
    verdict = CompletenessVerdict(
        cls, "boundary-distance", list(m_arr), [float(v) for v in dists], params
    )
    return pairs, verdict
