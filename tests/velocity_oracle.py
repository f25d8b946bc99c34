"""Closed-form velocity matrices of the built-in families, for the tests only.

``velocity_matrix_structured`` bypasses the generic trace formula of
``wavemetric.velocity.velocity_matrix`` and uses the known block structure
of each family's coefficients instead; the tests compare the two.  It
evaluates one point at a time.
"""

import numpy as np

from wavemetric import dsl
from wavemetric.errors import UnsupportedSystemError
from wavemetric.matkernel import spd_inv_sqrt, spd_sqrt
from wavemetric.systems import CURL_GENERATORS, STRAIN_GENERATORS, CoefficientSystem
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
