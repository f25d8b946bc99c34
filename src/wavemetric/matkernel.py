"""Dense Hermitian/SPD helpers for the small per-point coefficient matrices.

Everything here operates on k-by-k matrices with k rarely above 9, so the
eigendecompositions are delegated to LAPACK via ``numpy.linalg``; the wrappers
add the validation and relative-tolerance conventions the rest of the package
relies on.  All tolerances are relative to the norm of the input, with an
absolute floor of 1e-300 so zero matrices compare cleanly.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, MatrixError, SingularMatrixError

__all__ = [
    "HermitianMatrix",
    "SPDMatrix",
    "eig_herm",
    "op_norm",
    "spd_sqrt",
    "spd_inv_sqrt",
    "at_point",
]

HERMITIAN_RTOL = 1e-13
SINGULAR_RTOL = 1e-14
_FLOOR = 1e-300


def _norm_floor(value: float) -> float:
    return max(float(value), _FLOOR)


def _hermitian_part(a: np.ndarray, where: str = "") -> np.ndarray:
    """0.5 (a + a^H) of a square matrix or a stack (..., k, k); raises for the first
    matrix whose Hermitian defect exceeds ``HERMITIAN_RTOL`` of its Frobenius norm."""
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise MatrixError(f"expected a square matrix, got shape {a.shape}{where}")
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    adj = a.swapaxes(-1, -2).conj()
    defect = np.linalg.norm(a - adj, axis=(-2, -1))
    bad = defect > HERMITIAN_RTOL * np.maximum(np.linalg.norm(a, axis=(-2, -1)), _FLOOR)
    if bad.any():
        raise MatrixError(
            f"matrix is not Hermitian: defect {float(np.extract(bad, defect)[0]):.3e} "
            f"exceeds {HERMITIAN_RTOL:.0e} relative{where}"
        )
    return 0.5 * (a + adj)


class HermitianMatrix:
    """A validated Hermitian matrix.

    The constructor symmetrizes entries and rejects inputs whose Hermitian
    defect exceeds ``HERMITIAN_RTOL`` relative to the Frobenius norm.
    """

    __slots__ = ("mat",)

    def __init__(self, entries, *, where: str = ""):
        a = np.asarray(entries)
        if a.ndim > 2:
            raise MatrixError(f"expected a square matrix, got shape {a.shape}{where}")
        self.mat = _hermitian_part(a, where)

    @property
    def k(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.mat.astype(dtype)
        return self.mat

    def __repr__(self):
        return f"{type(self).__name__}({self.mat!r})"


class SPDMatrix(HermitianMatrix):
    """Hermitian and positive definite, checked by eigendecomposition."""

    __slots__ = ()

    def __init__(self, entries, *, where: str = ""):
        super().__init__(entries, where=where)
        w = np.linalg.eigvalsh(self.mat)
        if w[0] <= 0.0:
            raise MatrixError(
                f"matrix is not positive definite: smallest eigenvalue "
                f"{w[0]:.6e}{where}"
            )


def _as_hermitian(h) -> np.ndarray:
    return h.mat if isinstance(h, HermitianMatrix) else _hermitian_part(np.asarray(h))


def eig_herm(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    Accepts a HermitianMatrix or anything the HermitianMatrix constructor
    accepts.  Non-convergence raises ConvergenceError carrying the matrix.
    """
    a = _as_hermitian(h)
    try:
        w, u = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise ConvergenceError(f"eigensolver did not converge: {exc}", matrix=a) from exc
    return w, u


def op_norm(h):
    """Operator (spectral) norm of a Hermitian matrix: max |eigenvalue|.

    A stack (..., k, k) gives one norm per matrix, each checked as the
    HermitianMatrix constructor checks one.
    """
    w = np.linalg.eigvalsh(_as_hermitian(h))
    norm = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))
    return float(norm) if norm.ndim == 0 else norm


def _spd_power(s, exponent: float, where: str) -> np.ndarray:
    a = s.mat if isinstance(s, SPDMatrix) else SPDMatrix(s, where=where).mat
    w, u = np.linalg.eigh(a)
    if w[0] < SINGULAR_RTOL * _norm_floor(w[-1]):
        raise SingularMatrixError(
            f"numerically singular E: eigenvalue {w[0]:.6e} below "
            f"{SINGULAR_RTOL:.0e} of norm {w[-1]:.6e}{where}"
        )
    out = (u * np.power(w, exponent)) @ u.conj().T
    return 0.5 * (out + out.conj().T)


def spd_sqrt(s, *, where: str = "") -> np.ndarray:
    """Principal square root of an SPD matrix, as a plain array."""
    return _spd_power(s, 0.5, where)


def spd_inv_sqrt(s, *, where: str = "") -> np.ndarray:
    """Inverse principal square root of an SPD matrix, as a plain array."""
    return _spd_power(s, -0.5, where)


def at_point(fn, mat, what: str, x) -> np.ndarray:
    """``fn(mat)`` for a coefficient matrix sampled at the point x.

    Formatting x costs more than the small eigendecomposition itself, so the
    error context " (<what> at <x>)" is built only when ``fn`` raises: the
    call is then repeated with it, and raises the same error with the context.
    """
    try:
        return fn(mat)
    except MatrixError:
        return fn(mat, where=f" ({what} at {np.asarray(x)})")
