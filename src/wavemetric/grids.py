"""Uniform rectilinear grids over the finite window of a box domain.

Two node placements are supported.  Interior grids (the default, and the only
kind the evolution code accepts) put nodes strictly inside the window with
spacing extent/(n+1), so coefficient fields that degenerate or blow up on the
boundary stay evaluable.  Closure grids include the window edges with spacing
extent/(n-1), which the lattice-distance code uses so that distances between
box corners come out exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

MIN_NODES = 8


@dataclass(frozen=True)
class Grid:
    domain: "BoxDomain"
    shape: tuple[int, ...]
    interior: bool = True

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if len(self.shape) != self.domain.d:
            raise ValueError(
                f"grid rank {len(self.shape)} does not match domain dimension "
                f"{self.domain.d}"
            )
        if any(n < MIN_NODES for n in self.shape):
            raise ValueError(f"need at least {MIN_NODES} nodes per axis, got {self.shape}")
        for lo, hi in zip(self.domain.lower, self.domain.upper):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(
                    "grid requires a finite sampling window on every axis; "
                    "set finite lower/upper values (unbounded flags may stay)"
                )
        axes = []
        spacing = []
        for n, lo, hi in zip(self.shape, self.domain.lower, self.domain.upper):
            extent = hi - lo
            if self.interior:
                h = extent / (n + 1)
                axes.append(lo + h * np.arange(1, n + 1))
            else:
                h = extent / (n - 1)
                axes.append(lo + h * np.arange(n))
            spacing.append(h)
        object.__setattr__(self, "_axes", tuple(axes))
        object.__setattr__(self, "_spacing", tuple(spacing))

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def axes(self) -> tuple[np.ndarray, ...]:
        return self._axes

    @property
    def spacing(self) -> tuple[float, ...]:
        return self._spacing

    @property
    def node_count(self) -> int:
        return int(np.prod(self.shape))

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (*shape, d)."""
        mesh = np.meshgrid(*self._axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def node_coords(self, index: tuple[int, ...]) -> np.ndarray:
        return np.array([ax[i] for ax, i in zip(self._axes, index)])

    def nearest_node(self, point) -> tuple[int, ...]:
        point = np.asarray(point, dtype=float)
        if point.shape != (self.d,):
            raise ValueError(f"expected a {self.d}-vector, got shape {point.shape}")
        idx = []
        for ax, p in zip(self._axes, point):
            idx.append(int(np.clip(np.round((p - ax[0]) / (ax[1] - ax[0])), 0, len(ax) - 1)))
        return tuple(idx)

    def trapezoid_weights(self) -> np.ndarray:
        """Tensor-product trapezoid quadrature weights, one per node."""
        per_axis = []
        for ax, h in zip(self._axes, self._spacing):
            w = np.full(len(ax), h)
            w[0] *= 0.5
            w[-1] *= 0.5
            per_axis.append(w)
        return reduce(np.multiply.outer, per_axis)


CSV_CHUNK_ROWS = 4096


def write_csv(path, names, table) -> None:
    """Write a float table as CSV: a header row, then rows of ``%.17g`` values.

    Rows end in ``\r\n`` as ``csv.writer`` ends them, so the bytes equal rows
    of ``f"{v:.17g}"`` strings written by it (``nan``, ``inf``, ``-0`` included).

    Tables are mostly repeats (axis values, constant columns, zero imaginary
    parts), so each distinct float64 bit pattern is formatted once per chunk of
    ``CSV_CHUNK_ROWS`` rows and the cells are gathered from those strings.  The
    bytes do not change: a cell's text depends only on its bit pattern, keying
    on bits keeps -0 apart from 0, every NaN payload prints ``nan`` as before,
    and ``%.17g`` is the conversion ``f"{v:.17g}"`` makes.
    """
    table = np.ascontiguousarray(table, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\r\n").encode())
        for start in range(0, len(table), CSV_CHUNK_ROWS):
            part = table[start:start + CSV_CHUNK_ROWS]
            keys, inverse = np.unique(part.view(np.uint64), return_inverse=True)
            text = ("%.17g\n" * len(keys)) % tuple(keys.view(np.float64).tolist())
            cells = np.array(text.encode().split(b"\n")[:-1])[inverse.reshape(part.shape)]
            # each cell is NUL-padded to the widest; "," or "\r\n" goes after the padding
            width = cells.itemsize
            padded = np.zeros(part.shape + (width + 2,), dtype=np.uint8)
            padded[..., :width] = cells.view(np.uint8).reshape(part.shape + (width,))
            padded[:, :-1, width] = ord(",")
            padded[:, -1, width:] = (ord("\r"), ord("\n"))
            fh.write(padded[padded != 0].tobytes())
