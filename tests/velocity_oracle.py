"""Reference velocity matrices, for the tests only.

``velocity_matrix_structured`` bypasses the generic trace formula of
``wavemetric.velocity.velocity_matrix`` and uses the known block structure
of each family's coefficients instead; the tests compare the two.  It
evaluates one point at a time.

``canonical_stacks`` and ``stack_traces`` are the whole-stack formulas the
plane kernels replace: every B^j = E^{-1/2} A^j E^{-1/2} formed as a dense
S + (k, k) stack, and Tr(B^j B^l) contracted with ``np.einsum``.  The plane
kernels must give their bits.
"""

import numpy as np

from wavemetric import dsl
from wavemetric.errors import UnsupportedSystemError
from wavemetric.matkernel import spd_inv_sqrt, spd_sqrt
from wavemetric.systems import (
    CURL_GENERATORS,
    STRAIN_GENERATORS,
    CoefficientSystem,
    ConstMatrixField,
)
from wavemetric.velocity import _check_inside


def _at_point(fn, mat, what: str, x) -> np.ndarray:
    """``fn(mat)`` for a coefficient matrix sampled at the point x; an error
    names it as " (<what> at <x>)"."""
    return fn(mat, where=lambda _: f" ({what} at {np.asarray(x)})")


def _block_traces(blocks: list[np.ndarray], scale) -> np.ndarray:
    """scale * Tr(X_j X_l^T) over the closed-form blocks X_j of a built-in family."""
    d = len(blocks)
    M = np.empty((d, d))
    for j in range(d):
        for l in range(j, d):
            M[j, l] = M[l, j] = scale * float(np.trace(blocks[j] @ blocks[l].T))
    return M


def _structured_maxwell(sys: CoefficientSystem, x) -> np.ndarray:
    eps = sys.parts["eps"](x)
    mu = sys.parts["mu"](x)
    re = _at_point(spd_inv_sqrt, eps, "permittivity", x)
    rm = _at_point(spd_inv_sqrt, mu, "permeability", x)
    return _block_traces([re @ CURL_GENERATORS[j] @ rm for j in range(sys.d)], 2.0)


def _structured_elastic(sys: CoefficientSystem, x) -> np.ndarray:
    rho_expr, rho_src = sys.parts["rho"]
    rho = dsl.eval_expr(rho_expr, np.atleast_1d(x), source=rho_src)
    half = _at_point(spd_sqrt, sys.parts["stiffness"](x), "stiffness", x)
    return _block_traces([half @ STRAIN_GENERATORS[j] for j in range(sys.d)], 2.0 / rho)


def velocity_matrix_structured(sys: CoefficientSystem, x) -> np.ndarray:
    """Closed-form velocity matrix for the built-in families at one point."""
    x = _check_inside(sys, x)
    if sys.kind == "telegraph":
        L, C = (dsl.eval_expr(e, x, source=src) for e, src in (sys.parts["L"], sys.parts["C"]))
        return np.array([[2.0 / (L * C)]])
    if sys.kind == "maxwell":
        return _structured_maxwell(sys, x)
    if sys.kind == "elastic":
        return _structured_elastic(sys, x)
    raise UnsupportedSystemError(
        f"no specialized velocity formula for kind {sys.kind!r}; "
        "use velocity_matrix instead"
    )


def canonical_stacks(sys: CoefficientSystem, coords) -> list[np.ndarray]:
    """The canonical B^j at coords as dense stacks, each at the shape its field gives."""
    E = sys.E
    if sys.canonical or (isinstance(E, ConstMatrixField) and E.is_identity):
        return [A.sample(coords) for A in sys.A]
    if E.is_diagonal:
        R = spd_inv_sqrt(np.diagonal(E.sample(coords), axis1=-2, axis2=-1), diagonal=True)
    else:
        R = spd_inv_sqrt(E.sample(coords))
    out = []
    for A in sys.A:
        a = A.sample(coords)
        if E.is_diagonal:
            b = R[..., :, None] * a
            b *= R[..., None, :]
        else:
            b = R @ a @ R
        bt = b.swapaxes(-1, -2)
        b = b + (bt.conj() if np.iscomplexobj(bt) else bt)
        b *= 0.5
        out.append(b)
    return out


def stack_traces(B: list[np.ndarray]) -> np.ndarray:
    """Tr(B^j B^l) over the trailing (k, k) axes: shape S + (d, d) for samples S + (k, k)."""
    d = len(B)
    M = np.empty(np.broadcast_shapes(*(b.shape[:-2] for b in B)) + (d, d))
    for j in range(d):
        for l in range(j, d):
            M[..., j, l] = M[..., l, j] = np.einsum("...ab,...ba->...", B[j], B[l]).real
    return M
