"""Dense Hermitian/SPD helpers for the small per-point coefficient matrices.

Each function takes one k-by-k matrix or a stack (..., k, k), k rarely above
9, and adds the validation and relative-tolerance conventions the rest of
the package relies on.  The eigendecompositions are LAPACK's, via
``numpy.linalg``, except for diagonal matrices: ``spd_inv_sqrt`` with
``diagonal=True`` takes the diagonals alone, a stack (..., k), and checks
and inverts them column by column, and
``sym_eigen``, the eigen kernel of the real symmetric velocity, majorant
and metric stacks, finds a diagonal stack itself and returns its sorted
diagonal, the bits LAPACK would return.  ``hermitian_part`` is the package's one Hermitian test
(the Frobenius defect ||a - a^H|| against ||a||), and the SPD power kernel
behind ``spd_sqrt`` and ``spd_inv_sqrt`` applies it too, so a coefficient
matrix is admissible exactly when these kernels accept it.  A point and
every sample of a grid get the same arithmetic and agree bit for bit; a
stack raises for its first failing sample in C order.  All tolerances are
relative to the norm of the input, with an absolute floor of 1e-300 so zero
matrices compare cleanly.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import MatrixError, SingularMatrixError

__all__ = [
    "HermitianMatrix",
    "hermitian_part",
    "op_norm",
    "spd_sqrt",
    "spd_inv_sqrt",
    "sym_eigen",
]

HERMITIAN_RTOL = 1e-13
SINGULAR_RTOL = 1e-14
_FLOOR = 1e-300


def _square(a, where: str) -> np.ndarray:
    """a as float64 or complex128, checked to be a square matrix or a stack of them."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise MatrixError(f"expected a square matrix, got shape {a.shape}{where}")
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)


def _columns(a: np.ndarray) -> list[np.ndarray]:
    """The columns a[..., 0], a[..., 1], ... of a stack of diagonals (..., k).

    Folding a ufunc over them in order beats reducing the length-k last axis
    of a long stack, with the same bits: ``np.minimum`` and ``np.maximum``
    give ``min`` and ``max``, ``np.logical_and`` gives ``all``.
    """
    return [a[..., c] for c in range(a.shape[-1])]


def _diagonals(d, where) -> np.ndarray:
    """d as float64 or complex128, checked to hold the diagonals (..., k) of diagonal matrices."""
    d = np.asarray(d)
    if d.ndim < 1 or d.shape[-1] == 0:
        raise MatrixError(f"expected the diagonal of a square matrix, got shape {d.shape}"
                          f"{where if isinstance(where, str) else ''}")
    return d.astype(np.complex128 if np.iscomplexobj(d) else np.float64, copy=False)


def _hermitian_split(a: np.ndarray, axes=(-2, -1)):
    """Per matrix: 0.5 (a + a^H), whether all its entries are finite, and
    whether its defect ||a - a^H|| exceeds ``HERMITIAN_RTOL`` of ||a||.  With
    ``axes=-1`` a holds the diagonals of diagonal matrices, and finiteness is
    checked column by column.  A non-finite matrix becomes the identity
    first, so the arithmetic stays finite and the finite mask alone fails it.
    An exactly Hermitian a is its own part: no norms."""
    if axes == -1:
        finite = functools.reduce(np.logical_and, map(np.isfinite, _columns(a)))
    else:
        finite = np.isfinite(a).all(axis=axes)
    if not finite.all():
        a = np.where(np.expand_dims(finite, axes), a, 1.0 if axes == -1 else np.eye(a.shape[-1]))
    adj = a if axes == -1 else a.swapaxes(-1, -2)
    adj = adj.conj() if np.iscomplexobj(a) else adj
    if adj is a or not (a != adj).any():  # a real diagonal is Hermitian as it stands
        return a, finite, np.zeros(finite.shape, dtype=bool)
    defect = np.linalg.norm(a - adj, axis=axes)
    skew = defect > HERMITIAN_RTOL * np.maximum(np.linalg.norm(a, axis=axes), _FLOOR)
    return 0.5 * (a + adj), finite, skew


def _first(bad: np.ndarray, where):
    """Index of the first failing sample in C order, and the error context for the mask."""
    first = np.unravel_index(int(np.argmax(bad)), bad.shape)
    return first, where(bad) if callable(where) else where


def _raise_hermitian_failure(a, first, finite, skew, where: str) -> None:
    """Raise for sample ``first`` of a if it is non-finite or not Hermitian."""
    if not finite[first]:
        raise MatrixError(f"matrix has non-finite entries{where}")
    if skew[first]:
        raise _not_hermitian(a[first], where)


def _not_hermitian(m: np.ndarray, where: str) -> MatrixError:
    """The error for a matrix (k, k), or the diagonal (k,) of one, failing the Hermitian test."""
    m = np.diag(m) if m.ndim == 1 else m
    diff = np.abs(m - m.conj().T)
    i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
    rel = np.linalg.norm(diff) / max(float(np.linalg.norm(m)), _FLOOR)
    at = (f"entry ({i + 1}, {i + 1})" if i == j
          else f"entries ({i + 1}, {j + 1}) and ({j + 1}, {i + 1})")
    return MatrixError(f"matrix is not Hermitian: relative defect {rel:.3e} exceeds "
                       f"{HERMITIAN_RTOL:.0e}, largest at {at}{where}")


def hermitian_part(a, *, where="") -> np.ndarray:
    """0.5 (a + a^H) of a square matrix or a stack (..., k, k).

    A matrix with a non-finite entry, or whose Frobenius defect ||a - a^H||
    exceeds ``HERMITIAN_RTOL`` of ||a||, fails; the first in C order raises,
    its message ending in ``where``: a string, or a callable taking the mask
    of failing samples.
    """
    a = _square(a, where if isinstance(where, str) else "")
    h, finite, skew = _hermitian_split(a)
    bad = ~finite | skew
    if bad.any():
        first, where = _first(bad, where)
        _raise_hermitian_failure(a, first, finite, skew, where)
    return h


def _spd_eigen(s, where, diagonal: bool = False):
    """Eigenvalues w and eigenvectors u of the Hermitian part of each matrix of s.

    For ``diagonal`` matrices s holds their diagonals (..., k), w is s and u
    is None.  A sample that is non-finite, not Hermitian, not positive
    definite or numerically singular fails; the first in C order raises, its
    message ending in ``where`` as for ``hermitian_part``.
    """
    a = _diagonals(s, where) if diagonal else _square(s, where if isinstance(where, str) else "")
    h, finite, skew = _hermitian_split(a, -1 if diagonal else (-2, -1))
    if diagonal:
        w, u = h.real, None
        lo, hi = (functools.reduce(f, _columns(w)) for f in (np.minimum, np.maximum))
    else:
        w, u = np.linalg.eigh(h)
        lo, hi = w[..., 0], w[..., -1]
    bad = ~finite | skew | ~(lo >= SINGULAR_RTOL * np.maximum(hi, _FLOOR))
    if bad.any():
        first, where = _first(bad, where)
        _raise_hermitian_failure(a, first, finite, skew, where)
        if not lo[first] > 0.0:
            raise MatrixError(f"matrix is not positive definite: smallest eigenvalue "
                              f"{lo[first]:.6e}{where}")
        raise SingularMatrixError(f"matrix is numerically singular: eigenvalue {lo[first]:.6e} "
                                  f"below {SINGULAR_RTOL:.0e} of norm {hi[first]:.6e}{where}")
    return w, u


class HermitianMatrix:
    """A validated Hermitian matrix.

    The constructor symmetrizes entries and rejects inputs with a non-finite
    entry or whose Hermitian defect exceeds ``HERMITIAN_RTOL`` relative to the
    Frobenius norm.
    """

    __slots__ = ("mat",)

    def __init__(self, entries, *, where: str = ""):
        a = np.asarray(entries)
        if a.ndim > 2:
            raise MatrixError(f"expected a square matrix, got shape {a.shape}{where}")
        self.mat = hermitian_part(a, where=where).copy()  # never the caller's array

    @property
    def k(self) -> int:
        return self.mat.shape[0]

    def __array__(self, dtype=None, copy=None):
        return self.mat if dtype is None else self.mat.astype(dtype)

    def __repr__(self):
        return f"{type(self).__name__}({self.mat!r})"


def _as_hermitian(h) -> np.ndarray:
    return h.mat if isinstance(h, HermitianMatrix) else hermitian_part(h)


def op_norm(h):
    """Operator (spectral) norm of a Hermitian matrix: max |eigenvalue|.

    A stack (..., k, k) gives one norm per matrix, each checked as the
    HermitianMatrix constructor checks one.
    """
    w = np.linalg.eigvalsh(_as_hermitian(h))
    norm = np.maximum(np.abs(w[..., 0]), np.abs(w[..., -1]))
    return float(norm) if norm.ndim == 0 else norm


def sym_eigen(a, *, vectors: bool = False):
    """Eigenvalues, ascending, of each real symmetric matrix of a stack (..., k, k).

    Like LAPACK with ``UPLO='L'`` only the lower triangles are read.  When
    every strict lower triangle is zero the stack is diagonal and LAPACK is
    skipped: the eigenvalues are the sorted diagonal, and with ``vectors``
    the result is ``(diagonal, None)``, the eigenvector of the i-th value
    being the i-th axis.  ``dsyevd`` returns a diagonal matrix's diagonal
    sorted the same way, bit for bit, ties of +0 and -0 included, unless the
    largest |entry| lies outside about [1.5e-146, 6.7e145]: it then scales
    the matrix and rounds, where this kernel stays exact.  Any other stack
    goes to ``numpy.linalg.eigvalsh``, or ``eigh`` with ``vectors``.
    """
    a = np.asarray(a)
    k = a.shape[-1]
    if not any(a[..., i, j].any() for i in range(1, k) for j in range(i)):
        w = np.diagonal(a, axis1=-2, axis2=-1)
        return (w.copy(), None) if vectors else np.sort(w, axis=-1)
    return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)


def _spd_power(s, exponent: float, where, diagonal: bool = False) -> np.ndarray:
    """u diag(w^p) u^H, Hermitian part, per matrix; s^p for the diagonals s (..., k) if ``diagonal``."""
    w, u = _spd_eigen(s, where, diagonal)
    p = np.power(w, exponent)
    if u is None:
        return p.astype(np.complex128) if np.iscomplexobj(s) else p
    out = (u * p[..., None, :]) @ u.swapaxes(-1, -2).conj()
    herm = out + out.swapaxes(-1, -2).conj()
    herm *= 0.5
    return herm


def spd_sqrt(s, *, where="") -> np.ndarray:
    """Principal square root of an SPD matrix, or of each in a stack (..., k, k).

    ``where`` ends any error message: a string, or a callable taking the mask
    of failing samples and returning one.
    """
    return _spd_power(s, 0.5, where)


def spd_inv_sqrt(s, *, where="", diagonal: bool = False) -> np.ndarray:
    """Inverse principal square root of an SPD matrix, or of each in a stack.

    ``where`` is as for ``spd_sqrt``.  With ``diagonal`` s holds the
    diagonals (..., k) of diagonal matrices, as ``MatrixField.sample_diagonal``
    gives them: the checks read the eigenvalues off them column by column,
    nothing is decomposed, and the result is s^{-1/2}, shape (..., k), in s's
    memory layout.  A sample fails with the message the (..., k, k) stack of
    the same matrices would give.
    """
    return _spd_power(s, -0.5, where, diagonal)

