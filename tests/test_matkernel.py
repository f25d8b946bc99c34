import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wavemetric import verify
from wavemetric.errors import MatrixError, SingularMatrixError
from wavemetric.matkernel import (
    HermitianMatrix,
    hermitian_part,
    spd_inv_sqrt,
    spd_sqrt,
    sym_eigen,
)


def random_hermitian(rng, k, complex_=True):
    a = rng.standard_normal((k, k))
    if complex_:
        a = a + 1j * rng.standard_normal((k, k))
    return 0.5 * (a + a.conj().T)


def random_spd(rng, k):
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return a @ a.conj().T + 0.1 * np.eye(k)


def test_hermitian_accepts_and_symmetrizes():
    h = HermitianMatrix([[2.0, 1.0], [1.0, 3.0]])
    assert h.k == 2
    assert np.array_equal(np.asarray(h), [[2.0, 1.0], [1.0, 3.0]])


def test_hermitian_rejects_nonhermitian():
    with pytest.raises(MatrixError):
        HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(MatrixError):
        HermitianMatrix([[1.0, 1j], [1j, 1.0]])


def test_hermitian_rejects_nonsquare():
    with pytest.raises(MatrixError):
        HermitianMatrix(np.zeros((2, 3)))


def test_spd_rejects_indefinite():
    for power in (spd_sqrt, spd_inv_sqrt):
        with pytest.raises(MatrixError):
            power([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(MatrixError):
            power(np.zeros((3, 3)))


def test_op_norm_matches_numpy():
    spectral = verify.get_check("matkernel.op_norm_is_spectral").residual
    rng = np.random.default_rng(13)
    for _ in range(40):
        assert spectral(HermitianMatrix(random_hermitian(rng, 6))) <= 1e-12


def test_sqrt_round_trip():
    round_trip = verify.get_check("matkernel.spd_sqrt_roundtrip").residual
    rng = np.random.default_rng(14)
    for k in range(1, 10):
        assert round_trip(random_spd(rng, k)) < 1e-11


def test_inv_sqrt_round_trip():
    rng = np.random.default_rng(15)
    for k in (1, 3, 6, 9):
        s = random_spd(rng, k)
        r = spd_inv_sqrt(s)
        assert np.linalg.norm(r @ s @ r - np.eye(k)) < 1e-10


def test_inv_sqrt_accepts_raw_array():
    s = np.diag([4.0, 9.0])
    r = spd_inv_sqrt(s)
    assert np.allclose(r, np.diag([0.5, 1.0 / 3.0]))


def test_singular_detection():
    s = np.diag([1.0, 1e-16])
    with pytest.raises(SingularMatrixError, match="singular"):
        spd_inv_sqrt(s, where=" (weight at x=0)")
    try:
        spd_inv_sqrt(s, where=" (weight at x=0)")
    except SingularMatrixError as err:
        assert "weight at x=0" in str(err)


def test_well_conditioned_near_threshold_passes():
    s = np.diag([1.0, 1e-10])
    r = spd_inv_sqrt(s)
    assert np.isfinite(r).all()


def test_float_real_path_stays_real():
    h = HermitianMatrix(np.diag([1.0, 2.0]))
    for power in (spd_sqrt, spd_inv_sqrt):
        assert power(h).dtype == np.float64


def _stack_with_two_bad_samples(first, second):
    """A 2x3 stack of SPD matrices with ``first`` at (0, 2) and ``second`` at (1, 0)."""
    stack = np.broadcast_to(np.diag([2.0, 3.0]), (2, 3, 2, 2)).copy()
    stack[0, 2], stack[1, 0] = first, second
    return stack


def _flagged(bad):
    return f" (samples {np.argwhere(bad).tolist()})"


@pytest.mark.parametrize("first, second, error, message", [
    (np.diag([1.0, -1.0]), np.diag([np.nan, 1.0]), MatrixError,
     "matrix is not positive definite: smallest eigenvalue -1.000000e+00"),
    (np.diag([np.inf, 1.0]), np.diag([1.0, -1.0]), MatrixError,
     "matrix has non-finite entries"),
    (np.diag([1.0, 1e-16]), np.diag([1.0, -1.0]), SingularMatrixError,
     "matrix is numerically singular: eigenvalue 1.000000e-16 below 1e-14 of norm "
     "1.000000e+00"),
    (np.array([[1.0, 1.0], [0.0, 1.0]]), np.diag([1.0, 1e-16]), MatrixError,
     "matrix is not Hermitian: relative defect 8.165e-01 exceeds 1e-13, largest at "
     "entries (1, 2) and (2, 1)"),
], ids=["indefinite", "non-finite", "singular", "not-hermitian"])
def test_stack_error_names_the_first_failing_sample(first, second, error, message):
    stack = _stack_with_two_bad_samples(first, second)
    with pytest.raises(error) as info:
        spd_inv_sqrt(stack, where=_flagged)
    assert type(info.value) is error
    # the context sees both failing samples; the message is the first one's
    assert str(info.value) == message + " (samples [[0, 2], [1, 0]])"


def test_diagonal_stack_fails_as_the_general_path_fails():
    stack = _stack_with_two_bad_samples(np.diag([1.0, 1e-16]), np.diag([np.nan, 1.0]))
    for diagonal in (False, True):
        with pytest.raises(SingularMatrixError) as info:
            spd_inv_sqrt(np.diagonal(stack, axis1=-2, axis2=-1) if diagonal else stack,
                         where=_flagged, diagonal=diagonal)
        assert str(info.value).endswith("1.000000e+00 (samples [[0, 2], [1, 0]])")


def test_diagonal_stack_gives_the_inverse_square_roots_of_the_diagonal():
    stack = np.broadcast_to(np.diag([4.0, 9.0]), (3, 2, 2))
    r = spd_inv_sqrt(np.diagonal(stack, axis1=1, axis2=2), diagonal=True)
    assert r.shape == (3, 2)
    assert np.array_equal(r, np.broadcast_to([0.5, 1.0 / 3.0], (3, 2)))
    assert r.tobytes() == np.diagonal(spd_inv_sqrt(stack), axis1=1, axis2=2).tobytes()


_ENTRY = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def spd_stacks(draw):
    """A stack of 1 to 4 real or complex SPD matrices a a^H + I, k from 1 to 9."""
    k, n = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    a = draw(arrays(np.float64, (n, k, k), elements=_ENTRY))
    if draw(st.booleans()):
        a = a + 1j * draw(arrays(np.float64, (n, k, k), elements=_ENTRY))
    return a @ a.conj().swapaxes(-1, -2) + np.eye(k)


@settings(derandomize=True, database=None, deadline=None)
@given(spd_stacks())
def test_stacked_powers_equal_the_per_matrix_powers(E):
    for power in (spd_sqrt, spd_inv_sqrt):
        stacked = power(E)
        assert stacked.shape == E.shape
        for i, e in enumerate(E):
            assert power(e).tobytes() == stacked[i].tobytes()
    S = spd_inv_sqrt(E)
    assert np.abs(S @ S @ E - np.eye(E.shape[-1])).max() <= 1e-12


@pytest.mark.parametrize("bad, message", [
    # the whole 6x6 weight of a permittivity with eps_12 = 0.5 + 1.84e-13
    (np.block([[np.array([[1.0, 0.5 + 1.84e-13, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                np.zeros((3, 3))], [np.zeros((3, 3)), np.eye(3)]]),
     "relative defect 1.020e-13 exceeds 1e-13, largest at entries (1, 2) and (2, 1)"),
    (np.array([[1.0, 0.0], [0.0, 1.0 + 1e-3j]]),
     "relative defect 1.414e-03 exceeds 1e-13, largest at entry (2, 2)"),
], ids=["off-diagonal", "diagonal"])
def test_hermitian_error_gives_the_relative_defect_and_the_worst_entries(bad, message):
    stack = np.broadcast_to(np.eye(bad.shape[0]), (2, 3) + bad.shape).astype(bad.dtype)
    stack[1, 0] = stack[1, 2] = bad
    assert np.array_equal(hermitian_part(stack[0]), stack[0])
    for kernel in (hermitian_part, spd_sqrt, spd_inv_sqrt):
        with pytest.raises(MatrixError) as info:
            kernel(stack, where=_flagged)
        assert type(info.value) is MatrixError
        assert str(info.value) == ("matrix is not Hermitian: " + message
                                   + " (samples [[1, 0], [1, 2]])")


# -- sym_eigen: the diagonal shortcut against LAPACK, bit for bit ------------

def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


# signed zeros, ones and magnitudes from 1e-140 to 1e140: inside the range
# where dsyevd neither scales nor rounds a matrix
_DIAGONAL_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-140, -1e-140, 1e140, -1e140]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99) | st.floats(-9.99, -1.0),
              st.integers(-140, 139)),
)


@st.composite
def diagonal_stacks(draw, d):
    """Diagonal (d, d) matrices in a stack of shape (), (n,) or (2, n): entries
    from a pool of at most four values, so ties (+0 against -0 too) are common;
    sometimes an arbitrary upper triangle, which LAPACK does not read."""
    shape = draw(st.sampled_from([(), (draw(st.integers(1, 5)),), (2, 3)]))
    pool = draw(st.lists(_DIAGONAL_ENTRY, min_size=1, max_size=4))
    diagonal = draw(arrays(np.float64, shape + (d,), elements=st.sampled_from(pool)))
    a = np.zeros(shape + (d, d))
    axes = np.arange(d)
    a[..., axes, axes] = diagonal
    if d > 1 and draw(st.booleans()):
        rows, cols = np.triu_indices(d, 1)
        a[..., rows, cols] = draw(arrays(np.float64, shape + (len(rows),), elements=_ENTRY))
    return a


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 3).flatmap(diagonal_stacks))
def test_sym_eigen_of_a_diagonal_stack_has_lapacks_bits(a):
    assert _bits(sym_eigen(a)).tobytes() == _bits(np.linalg.eigvalsh(a)).tobytes()
    w, u = sym_eigen(a, vectors=True)
    assert u is None
    assert _bits(w).tobytes() == _bits(np.diagonal(a, axis1=-2, axis2=-1)).tobytes()
    # LAPACK's eigenvectors are the axes, permuted: its j-th eigenvalue is
    # the diagonal entry of the axis its j-th vector points along
    lw, lu = np.linalg.eigh(a)
    assert np.all((np.abs(lu) == 0.0) | (np.abs(lu) == 1.0))
    axis = np.abs(lu).argmax(axis=-2)
    assert _bits(np.take_along_axis(w, axis, -1)).tobytes() == _bits(lw).tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.integers(2, 3).flatmap(diagonal_stacks), st.data())
def test_sym_eigen_of_a_stack_with_an_off_diagonal_entry_is_lapacks(a, data):
    a = a.reshape((-1,) + a.shape[-2:])
    node = data.draw(st.integers(0, len(a) - 1))
    i, j = data.draw(st.sampled_from(list(zip(*np.tril_indices(a.shape[-1], -1)))))
    a[node, i, j] = a[node, j, i] = data.draw(_DIAGONAL_ENTRY.filter(bool))
    assert _bits(sym_eigen(a)).tobytes() == _bits(np.linalg.eigvalsh(a)).tobytes()
    w, u = sym_eigen(a, vectors=True)
    lw, lu = np.linalg.eigh(a)
    assert _bits(w).tobytes() == _bits(lw).tobytes()
    assert _bits(u).tobytes() == _bits(lu).tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_sym_eigen_of_a_general_stack_is_lapacks(d):
    rng = np.random.default_rng(d)
    a = rng.normal(size=(7, d, d))
    a = a + np.swapaxes(a, -1, -2)
    assert _bits(sym_eigen(a)).tobytes() == _bits(np.linalg.eigvalsh(a)).tobytes()
    w, u = sym_eigen(a, vectors=True)
    lw, lu = np.linalg.eigh(a)
    assert _bits(w).tobytes() == _bits(lw).tobytes()
    assert _bits(u).tobytes() == _bits(lu).tobytes()


def test_sym_eigen_is_exact_where_lapack_scales_the_matrix():
    # dsyevd scales a matrix whose largest |entry| exceeds about 6.7e145 and
    # rounds on the way back: on this one it returns 0.3 one ulp low.  The
    # diagonal shortcut returns the diagonal itself, sorted.
    a = np.diag([1e200, 0.3])
    assert sym_eigen(a).tolist() == [0.3, 1e200]
    assert sym_eigen(a, vectors=True)[0].tolist() == [1e200, 0.3]
    np.testing.assert_array_max_ulp(np.linalg.eigvalsh(a), [0.3, 1e200], maxulp=2)
