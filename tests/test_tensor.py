"""Tests for tensor helpers: sigmoid, finiteness checks, RNG."""

import numpy as np
import numpy.testing as npt
import pytest

from rfcn.errors import NumericsError
from rfcn.tensor import Rng, check_finite, fill_random, sigmoid


def test_sigmoid_matches_naive_in_safe_range():
    rng = Rng(1)
    x = rng.uniform(-20, 20, 1000)
    npt.assert_allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-12)


def test_sigmoid_stable_at_extremes():
    x = np.array([-1e4, -750.0, 750.0, 1e4])
    y = sigmoid(x)
    assert np.all(np.isfinite(y))
    npt.assert_allclose(y, [0.0, 0.0, 1.0, 1.0], atol=1e-12)


def sigmoid_two_branch(x):
    """1 / (1 + e^-x) where x >= 0, e^x / (1 + e^x) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_where(x):
    """The np.where form of the one-exp sigmoid: a byte-level oracle that
    covers NaN as well."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


def test_sigmoid_matches_two_branch_formula():
    special = [0.0, -0.0, np.inf, -np.inf, 88.7, -88.7, 745.0, -745.0, 1e4, -1e4]
    spread = Rng(2).uniform(-40, 40, 500)
    for dtype, bits in ((np.float32, np.uint32), (np.float64, np.uint64)):
        x = np.concatenate([special, spread]).astype(dtype)
        y = sigmoid(x)
        assert y.dtype == dtype
        npt.assert_array_equal(y.view(bits), sigmoid_two_branch(x).view(bits))
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan], dtype=dtype))).all()
        tiny = np.finfo(dtype).smallest_subnormal
        odd = np.array([np.nan, -np.nan, tiny, -tiny, 3 * tiny, -3 * tiny], dtype=dtype)
        x = np.concatenate([x, odd]).reshape(4, -1)
        npt.assert_array_equal(sigmoid(x).view(bits), sigmoid_where(x).view(bits))
    yi = sigmoid(np.array([-3, 0, 2]))
    assert yi.dtype == np.float64
    npt.assert_array_equal(yi, sigmoid_two_branch(np.array([-3.0, 0.0, 2.0])))


def test_check_finite_reports_op_and_index():
    x = np.array([1.0, 2.0, np.nan, 4.0])
    with pytest.raises(NumericsError) as e:
        check_finite(x, "myop")
    assert "myop" in str(e.value)
    assert "2" in str(e.value)


def test_rng_determinism_and_split_independence():
    a = Rng(123).uniform(0, 1, 100)
    b = Rng(123).uniform(0, 1, 100)
    npt.assert_array_equal(a, b)
    # children are reproducible and differ from each other
    kids1 = [r.uniform(0, 1, 10) for r in Rng(7).spawn(3)]
    kids2 = [r.uniform(0, 1, 10) for r in Rng(7).spawn(3)]
    for k1, k2 in zip(kids1, kids2):
        npt.assert_array_equal(k1, k2)
    assert not np.array_equal(kids1[0], kids1[1])


def test_rng_permutation_and_choice_ranges():
    rng = Rng(5)
    for _ in range(20):
        p = rng.permutation(17)
        assert sorted(p) == list(range(17))
        c = int(rng.integers(9))
        assert 0 <= c < 9


def test_fill_random_scaled_fan_in_bounds():
    rng = Rng(11)
    w = fill_random((32, 5, 3, 3), rng, np.float64)
    bound = np.sqrt(6.0 / (5 * 3 * 3))
    assert np.abs(w).max() <= bound
    # large sample actually uses the range
    assert np.abs(w).max() > 0.8 * bound
