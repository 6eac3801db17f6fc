"""Vector statistics: worked examples, error contracts, and identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreeloss.exceptions import (
    DimensionMismatchError,
    InvalidInputError,
    UndefinedValueError,
)
from agreeloss.vector_stats import (
    as_vector,
    lp_mean,
    mad,
    mean,
    pearson,
    sign,
    std,
    variance,
)


class TestAsVector:
    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            as_vector([])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidInputError):
            as_vector([1.0, float("nan")])
        with pytest.raises(InvalidInputError):
            as_vector([1.0, float("inf")])

    def test_rejects_matrix(self):
        with pytest.raises(InvalidInputError):
            as_vector([[1.0, 2.0]])

    def test_result_is_read_only(self):
        arr = as_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            arr[0] = 5.0

    def test_does_not_alias_caller_array(self):
        source = np.array([1.0, 2.0])
        arr = as_vector(source)
        source[0] = 9.0
        assert arr[0] == 1.0


class TestMean:
    def test_symmetric_pair(self):
        assert mean([0.0, 2.0]) == 1.0

    def test_midpoint(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_singleton(self):
        assert mean([5.0]) == 5.0


class TestMad:
    def test_pair(self):
        # (|1-0| + |1-2|) / 2
        assert mad([0.0, 2.0]) == 1.0

    def test_three(self):
        # (1 + 0 + 1) / 3
        assert math.isclose(mad([1.0, 2.0, 3.0]), 2.0 / 3.0, rel_tol=1e-15)

    def test_constant(self):
        assert mad([4.0, 4.0, 4.0]) == 0.0


class TestStd:
    def test_pair(self):
        assert std([0.0, 2.0]) == 1.0

    def test_three(self):
        assert math.isclose(std([1.0, 2.0, 3.0]), math.sqrt(2.0 / 3.0), rel_tol=1e-15)

    def test_constant(self):
        assert std([7.0, 7.0, 7.0]) == 0.0

    def test_population_divisor(self):
        # Divisor n, not n - 1.
        y = np.array([1.0, 2.0, 3.0, 6.0])
        assert math.isclose(variance(y), np.mean((y - y.mean()) ** 2), rel_tol=1e-15)


class TestPearson:
    def test_positive_linear(self):
        assert abs(pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) - 1.0) <= 1e-12

    def test_negative_linear(self):
        assert abs(pearson([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) + 1.0) <= 1e-12

    def test_half(self):
        # <(-1,0,1), (-1,1,0)> / 2 = 1/2
        assert math.isclose(pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]), 0.5, rel_tol=1e-15)

    def test_constant_input_is_undefined(self):
        with pytest.raises(UndefinedValueError):
            pearson([1.0, 1.0], [0.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_overflowing_norm_is_named(self):
        # Perfectly correlated, but the squared deviations of y overflow.
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError, match="overflows"):
            pearson([0.0, 1.0, 2.0], [0.0, 1e200, 2e200])

    def test_affine_invariance_up_to_sign(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 60))
            x = rng.normal(0, 2, n)
            y = rng.normal(0, 2, n)
            a, c = rng.uniform(0.1, 4, 2) * rng.choice([-1.0, 1.0], 2)
            b, d = rng.uniform(-5, 5, 2)
            lhs = pearson(a * x + b, c * y + d)
            rhs = sign(a * c) * pearson(x, y)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestLpMean:
    def test_median(self):
        assert lp_mean([1.0, 2.0, 100.0], 1) == 2.0

    def test_mean(self):
        assert math.isclose(lp_mean([1.0, 2.0, 100.0], 2), 103.0 / 3.0, rel_tol=1e-15)

    def test_even_median_midpoint(self):
        assert lp_mean([0.0, 2.0], 1) == 1.0

    def test_rejects_p_below_one(self):
        with pytest.raises(InvalidInputError):
            lp_mean([1.0, 2.0], 0.9)

    def test_midrange_at_infinity(self):
        assert lp_mean([0.0, 1.0, 10.0], math.inf) == 5.0

    def test_constant_vector(self):
        assert lp_mean([3.0, 3.0, 3.0], 1.7) == 3.0

    @pytest.mark.parametrize("p", [1.3, 1.5, 2.5, 3.0, 6.0])
    def test_general_p_is_local_minimum(self, p):
        rng = np.random.default_rng(int(p * 10))
        for _ in range(20):
            y = rng.normal(0, 3, int(rng.integers(2, 40)))
            m = lp_mean(y, p)

            def objective(t):
                return float(np.sum(np.abs(y - t) ** p))

            assert objective(m) <= objective(m + 1e-5) + 1e-12
            assert objective(m) <= objective(m - 1e-5) + 1e-12

    def test_general_p_matches_dense_scan(self):
        rng = np.random.default_rng(77)
        y = rng.normal(0, 2, 25)
        for p in (1.5, 3.0):
            grid = np.linspace(y.min(), y.max(), 400_001)
            values = np.abs(y[None, :] - grid[:, None]) ** p
            best = grid[np.argmin(values.sum(axis=1))]
            assert abs(lp_mean(y, p) - best) <= 2.0 * (grid[1] - grid[0])


class TestSign:
    def test_positive(self):
        assert sign(3.2) == 1.0

    def test_negative(self):
        assert sign(-0.1) == -1.0

    def test_zero(self):
        assert sign(0.0) == 0.0


class TestIdentities:
    """Norm and moment identities on random vectors, with numpy's norms."""

    def _random_vectors(self, count=200, max_n=300, seed=10):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(1, max_n))
            yield rng.normal(rng.uniform(-10, 10), rng.uniform(0.1, 5.0), n)

    def test_pythagorean_decomposition(self):
        for x in self._random_vectors():
            n = x.size
            lhs = np.linalg.norm(x) ** 2
            rhs = n * mean(x) ** 2 + np.linalg.norm(x - x.mean()) ** 2
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_variance_identity(self):
        for x in self._random_vectors(seed=11):
            lhs = np.linalg.norm(mean(x) - x) ** 2
            rhs = x.size * variance(x)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_norm_sandwich(self):
        for x in self._random_vectors(seed=12):
            l1, l2 = np.linalg.norm(x, 1), np.linalg.norm(x)
            assert l2 <= l1 * (1.0 + 1e-12)
            assert l1 <= math.sqrt(x.size) * l2 * (1.0 + 1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(1, 100))
            x = rng.normal(0, 3, n)
            y = rng.normal(0, 3, n)
            assert abs(np.dot(x, y)) <= np.linalg.norm(x) * np.linalg.norm(y) * (1.0 + 1e-12)

    def test_cauchy_schwarz_equality_on_collinear(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.normal(0, 1, 10)
            a = rng.uniform(-3, 3)
            lhs = abs(np.dot(x, a * x))
            rhs = np.linalg.norm(x) * np.linalg.norm(a * x)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)

    def test_triangle_inequality_and_equality(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = int(rng.integers(1, 80))
            x = rng.normal(0, 2, n)
            y = rng.normal(0, 2, n)
            norm = np.linalg.norm
            assert norm(x + y) <= (norm(x) + norm(y)) * (1.0 + 1e-12)
            # Positive multiples achieve equality.
            a = rng.uniform(0.1, 5.0)
            lhs = norm(x + a * x)
            rhs = norm(x) + norm(a * x)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)

    def test_large_vector_identities_hold(self):
        # The pairwise-summation requirement: identities at n = 10**6.
        rng = np.random.default_rng(16)
        x = rng.normal(3.0, 2.0, 1_000_000)
        lhs = np.linalg.norm(x) ** 2
        rhs = x.size * mean(x) ** 2 + np.linalg.norm(x - x.mean()) ** 2
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
        assert mad(x) <= std(x)


# width=32 keeps squared deviations clear of float64 underflow.
@given(
    st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=32),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=300, deadline=None)
def test_mad_never_exceeds_std(values):
    x = np.array(values)
    assert mad(x) <= std(x) * (1.0 + 1e-12) + 1e-300


@given(
    st.lists(
        st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
        min_size=2,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_lp_mean_bracketed_by_data(values):
    y = np.array(values)
    for p in (1.0, 1.5, 2.0, 4.0):
        m = lp_mean(y, p)
        assert y.min() - 1e-9 <= m <= y.max() + 1e-9
