"""The straightforward lattice-graph builder, for the tests only.

``lattice_graph_every_slot`` weighs every (node, stencil offset) slot on its
own: each undirected edge twice, once per direction, and every one of the
d*d terms of dx . G_mid . dx, zero offset components included.  It has the
signature of ``wavemetric.geometry._lattice_graph`` and returns a CSR matrix
with one row of ``size`` slots per node, so its ``data`` and ``indices``
reshaped to (n, size) are the slot arrays of ``_lattice_graph``, which the
tests hold to them bit for bit.
"""

import numpy as np
from scipy.sparse import csr_array

from wavemetric.geometry import GEODESIC


def lattice_graph_every_slot(grid, offsets, mode, mats, passable):
    """CSR graph with one slot per (node, offset); a +inf self-loop where no edge."""
    shape = grid.shape
    n = grid.node_count
    size = len(offsets)
    itype = np.int32 if n * size < 2**31 else np.int64
    node = np.arange(n, dtype=itype).reshape(shape)
    data = np.full(shape + (size,), np.inf)
    indices = np.repeat(node[..., None], size, axis=-1)
    spacing = np.asarray(grid.spacing)
    for k, off in enumerate(offsets):
        tail = tuple(slice(max(-o, 0), m - max(o, 0)) for o, m in zip(off, shape))
        head = tuple(slice(max(o, 0), m - max(-o, 0)) for o, m in zip(off, shape))
        dx = off * spacing
        len2 = 0.0
        for a in range(grid.d):
            len2 += dx[a] * dx[a]
        with np.errstate(invalid="ignore", divide="ignore"):
            mt, mh = mats[tail], mats[head]
            q = np.zeros(mt.shape[:-2])
            for a in range(grid.d):
                for b in range(grid.d):
                    q += dx[a] * (0.5 * (mt[..., a, b] + mh[..., a, b])) * dx[b]
            if mode == GEODESIC:
                w = np.sqrt(q)
                keep = ~np.isnan(w)
            else:
                keep = q > 0.0
                w = len2 / np.sqrt(q)
        keep &= passable[head]
        data[tail + (k,)][keep] = w[keep]
        indices[tail + (k,)][keep] = node[head][keep]
    indptr = np.arange(0, n * size + 1, size, dtype=itype)
    return csr_array((data.reshape(-1), indices.reshape(-1), indptr), shape=(n, n))
