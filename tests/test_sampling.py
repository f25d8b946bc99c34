import numpy as np
import pytest
from scipy.stats import qmc

from wavemetric.errors import ValidationError
from wavemetric.sampling import HALTON_BASES, halton_unit, unit_directions


@pytest.mark.parametrize("n", [1, 576, 2112, 100000])
@pytest.mark.parametrize("skip", [0, 1])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_halton_matches_scipy_bit_for_bit(d, skip, n):
    sampler = qmc.Halton(d=d, scramble=False)
    sampler.fast_forward(skip)
    ref = sampler.random(n)
    got = halton_unit(n, d, skip=skip)
    assert got.shape == ref.shape == (n, d)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_halton_first_points():
    got = halton_unit(3, 3)
    want = np.array([
        [1 / 2, 1 / 3, 1 / 5],
        [1 / 4, 2 / 3, 2 / 5],
        [3 / 4, 1 / 9, 3 / 5],
    ])
    # 3 * (1/5) and (1/3) / 3 round differently from 3/5 and 1/9
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("d", [0, len(HALTON_BASES) + 1])
def test_halton_rejects_dimension_outside_prime_table(d):
    with pytest.raises(ValidationError, match="Halton"):
        halton_unit(4, d)


@pytest.mark.parametrize("d", [0, 4])
def test_unit_directions_reject_unsupported_dimension(d):
    with pytest.raises(ValidationError, match=f"unsupported dimension {d}"):
        unit_directions(d)
