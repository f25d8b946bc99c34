"""The straightforward majorant smoothing and metric inversion, for the tests only.

``mollify_every_plane`` smooths all d*d entry planes of a matrix stack, zero
planes and mirrored planes included.  ``metric_every_eigh`` inverts the
majorant through ``numpy.linalg.eigh`` at every node, diagonal or not, and
accumulates G = u diag(c) u^T over j.  ``lapack_eigen`` has the signature of
``wavemetric.matkernel.sym_eigen`` but always calls LAPACK.  The tests hold
``wavemetric.velocity._mollify``, ``wavemetric.geometry.metric_from_velocity``
and ``sym_eigen`` to them bit for bit.
"""

import warnings

import numpy as np

from wavemetric.velocity import EPS_REG_FLOOR, EPS_REG_REL, _smooth_axis


def mollify_every_plane(samples, spatial_ndim):
    """Two binomial passes along each spatial axis of the whole (..., d, d) stack."""
    out = samples
    for _ in range(2):
        for ax in range(spatial_ndim):
            out = _smooth_axis(out, ax)
    return out


def lapack_eigen(a, *, vectors=False):
    """``numpy.linalg.eigh`` with ``vectors``, else ``numpy.linalg.eigvalsh``."""
    return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)


def metric_every_eigh(fld):
    """(G, degenerate) of the majorant of fld, one ``eigh`` per node; warns when capped."""
    H = fld.majorant_samples
    w, u = np.linalg.eigh(H)
    norms = np.linalg.norm(H, axis=(-2, -1))
    floor = max(EPS_REG_REL * float(norms.max()), EPS_REG_FLOOR)
    degenerate = bool(np.any(w <= floor * (1.0 + 1e-9)))
    uc = u * (1.0 / np.maximum(w, floor))[..., None, :]
    G = np.zeros(H.shape)
    for j in range(H.shape[-1]):
        G += uc[..., :, j, None] * u[..., None, :, j]
    if degenerate:
        warnings.warn(
            "velocity majorant nearly vanishes at some nodes; metric "
            f"eigenvalues capped at {1.0 / floor:.3e}, distances through "
            "the degenerate region are unreliable",
            stacklevel=2,
        )
    return 0.5 * (G + np.swapaxes(G, -1, -2)), degenerate
