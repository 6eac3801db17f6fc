"""Loss functions: worked examples, definedness guards, bounds, identities."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreeloss.exceptions import (
    DimensionMismatchError,
    InvalidInputError,
    UndefinedValueError,
)
from agreeloss.losses import (
    METRICS,
    SeriesPair,
    l_kbb,
    l_lmc,
    l_lmc_mean,
    l_lmc_median,
    l_nr2,
    l_nrp,
    l_w,
    mae,
    mse,
    nse,
    score,
    skill_score,
    v_mean_avg,
    v_median_avg,
)
from agreeloss.vector_stats import LP_MEAN_TOLERANCE, lp_mean, variance


def pair(z, y) -> SeriesPair:
    return SeriesPair(np.asarray(z, dtype=float), np.asarray(y, dtype=float))


def random_pairs(count, seed, max_n=120, min_n=2):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(min_n, max_n))
        y = rng.normal(rng.uniform(-5, 5), rng.uniform(0.2, 4.0), n)
        z = y + rng.normal(0.0, rng.uniform(0.05, 3.0), n)
        yield pair(z, y)


class TestSeriesPair:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pair([1.0, 2.0], [1.0])

    def test_flags(self):
        p = pair([1.0, 1.0], [1.0, 2.0])
        assert p.y_nonconstant and p.z_differs
        q = pair([3.0, 3.0], [3.0, 3.0])
        assert not q.y_nonconstant and not q.z_differs
        assert not q.agreement_defined

    def test_defined_when_z_differs_on_constant_y(self):
        p = pair([3.0, 4.0], [3.0, 3.0])
        assert p.agreement_defined


class TestMae:
    def test_perfect(self):
        assert mae(pair([1.0, 2.0], [1.0, 2.0])) == 0.0

    def test_half(self):
        assert mae(pair([0.0, 1.0], [0.0, 2.0])) == 0.5

    def test_one(self):
        assert mae(pair([1.0, 1.0], [0.0, 2.0])) == 1.0


class TestMse:
    def test_perfect(self):
        assert mse(pair([1.0, 2.0], [1.0, 2.0])) == 0.0

    def test_half(self):
        assert mse(pair([0.0, 1.0], [0.0, 2.0])) == 0.5

    def test_mean_prediction_gives_variance(self):
        y = np.array([0.0, 2.0])
        p = pair(np.full(2, y.mean()), y)
        assert mse(p) == variance(y) == 1.0


class TestNse:
    def test_perfect_is_one(self):
        assert nse(pair([0.0, 2.0], [0.0, 2.0])) == 1.0

    def test_climatology_is_zero(self):
        y = np.array([0.5, 1.5, 4.0])
        assert nse(pair(np.full(3, y.mean()), y)) == 0.0

    def test_value(self):
        assert nse(pair([0.0, 1.0], [0.0, 2.0])) == 0.5

    def test_constant_reference_undefined(self):
        with pytest.raises(UndefinedValueError):
            nse(pair([1.0, 2.0], [3.0, 3.0]))

    def test_underflowing_reference_undefined(self):
        # Non-constant observations whose variance underflows to zero.
        with pytest.raises(UndefinedValueError, match="variance"):
            nse(pair([0.0, 0.0], [0.0, 5e-324]))


class TestSkillScore:
    def test_optimal(self):
        assert skill_score(0.0, 2.5) == 1.0

    def test_ties_reference(self):
        assert skill_score(1.7, 1.7) == 0.0

    def test_zero_reference_undefined(self):
        with pytest.raises(UndefinedValueError):
            skill_score(1.0, 0.0)

    def test_negative_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            skill_score(-0.1, 1.0)

    def test_reduces_to_nse(self):
        for p in random_pairs(200, seed=21):
            clim = SeriesPair(np.full(p.n, p.y.mean()), p.y)
            assert abs(skill_score(mse(p), mse(clim)) - nse(p)) <= 1e-12


class TestLw:
    def test_perfect_is_zero(self):
        assert l_w(pair([0.0, 2.0], [0.0, 2.0])) == 0.0

    def test_mean_prediction_is_one(self):
        y = np.array([0.3, 1.9, 5.0])
        assert l_w(pair(np.full(3, y.mean()), y)) == 1.0

    def test_hand_value(self):
        # numerator 1, denominator (1+1)^2 + (0+1)^2 = 5
        assert l_w(pair([0.0, 1.0], [0.0, 2.0])) == 0.2

    def test_undefined_for_constant_identical(self):
        with pytest.raises(UndefinedValueError):
            l_w(pair([3.0, 3.0], [3.0, 3.0]))

    def test_constant_y_different_z_is_one(self):
        assert l_w(pair([1.0, 5.0], [3.0, 3.0])) == 1.0


class TestLnr2:
    def test_perfect_is_zero(self):
        assert l_nr2(pair([0.0, 2.0], [0.0, 2.0])) == 0.0

    def test_mean_prediction_is_one(self):
        y = np.array([0.3, 1.9, 5.0])
        assert abs(l_nr2(pair(np.full(3, y.mean()), y)) - 1.0) <= 1e-12

    def test_hand_value(self):
        expected = 1.0 / (1.0 + math.sqrt(2.0)) ** 2
        assert math.isclose(l_nr2(pair([0.0, 1.0], [0.0, 2.0])), expected, rel_tol=1e-15)

    def test_exact_one_cases(self):
        # constant observations, differing predictions
        assert abs(l_nr2(pair([1.0, 5.0], [3.0, 3.0])) - 1.0) <= 1e-12
        # predictions equal to the observation mean
        y = np.array([0.0, 2.0, 7.0])
        assert abs(l_nr2(pair(np.full(3, y.mean()), y)) - 1.0) <= 1e-12
        # z - mean(y) is a positive multiple of mean(y) - y
        y = np.array([0.0, 2.0])
        a = 0.5
        z = y.mean() + a * (y.mean() - y)
        assert abs(l_nr2(pair(z, y)) - 1.0) <= 1e-12

    def test_denominator_dominates_numerator(self):
        for p in random_pairs(200, seed=22):
            mu = p.y.mean()
            direct = math.sqrt(np.sum((p.z - p.y) ** 2))
            path = math.sqrt(np.sum((p.z - mu) ** 2)) + math.sqrt(np.sum((mu - p.y) ** 2))
            assert direct <= path * (1.0 + 1e-12)

    def test_shared_zero_set_with_lw(self):
        p = pair([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert l_w(p) == 0.0 and l_nr2(p) == 0.0
        q = pair([1.0, 2.0, 3.1], [1.0, 2.0, 3.0])
        assert l_w(q) > 0.0 and l_nr2(q) > 0.0


class TestLlmc:
    def test_perfect_is_zero(self):
        y = np.array([0.0, 2.0])
        assert l_lmc(pair(y, y), float(y.mean())) == 0.0

    def test_hand_value(self):
        # numerator 1, denominator (1+0) + (1+1) = 3
        assert math.isclose(l_lmc(pair([0.0, 1.0], [0.0, 2.0]), 1.0), 1.0 / 3.0, rel_tol=1e-15)

    def test_median_benchmark_matches_nrp_at_p1(self):
        for p in random_pairs(150, seed=23):
            lhs = l_lmc(p, lp_mean(p.y, 1))
            rhs = l_nrp(p, 1)
            assert abs(lhs - rhs) <= 1e-12

    def test_wrapper_equals_explicit_median(self):
        p = pair([0.0, 1.0, 4.0], [0.0, 2.0, 3.0])
        assert l_lmc_median(p) == l_lmc(p, float(np.median(p.y)))

    def test_zero_denominator_undefined(self):
        with pytest.raises(UndefinedValueError):
            l_lmc(pair([3.0, 3.0], [3.0, 3.0]), 3.0)


class TestLkbb:
    def test_p2_equals_lw(self):
        for p in random_pairs(200, seed=24):
            assert abs(l_kbb(p, 2) - l_w(p)) <= 1e-12

    def test_p1_hand_value(self):
        assert math.isclose(l_kbb(pair([0.0, 1.0], [0.0, 2.0]), 1), 1.0 / 3.0, rel_tol=1e-15)

    def test_perfect_is_zero_for_any_p(self):
        y = np.array([0.0, 2.0, 5.0])
        for p_exp in (1, 1.5, 2, 3, math.inf):
            assert l_kbb(pair(y, y), p_exp) == 0.0

    def test_rejects_p_below_one(self):
        with pytest.raises(InvalidInputError):
            l_kbb(pair([0.0, 1.0], [0.0, 2.0]), 0.5)

    def test_chebyshev_limit_bounded(self):
        for p in random_pairs(100, seed=25):
            assert 0.0 <= l_kbb(p, math.inf) <= 1.0


class TestLnrp:
    def test_p2_equals_lnr2(self):
        for p in random_pairs(200, seed=26):
            assert abs(l_nrp(p, 2) - l_nr2(p)) <= 1e-12

    def test_p1_hand_value(self):
        # median 1; numerator 1, denominator (1 + 2)
        assert math.isclose(l_nrp(pair([0.0, 1.0], [0.0, 2.0]), 1), 1.0 / 3.0, rel_tol=1e-15)

    def test_perfect_is_zero_for_any_p(self):
        y = np.array([0.0, 2.0, 5.0])
        for p_exp in (1, 1.5, 2, 3, math.inf):
            assert l_nrp(pair(y, y), p_exp) == 0.0

    def test_bounds_across_p(self):
        for p in random_pairs(100, seed=27):
            for p_exp in (1, 1.5, 2, 3, math.inf):
                assert 0.0 <= l_nrp(p, p_exp) <= 1.0


class TestIdentificationAverages:
    def test_vbar_mean_zero_on_perfect(self):
        assert v_mean_avg(pair([1.0, 2.0], [1.0, 2.0])) == 0.0

    def test_vbar_mean_cancellation(self):
        assert v_mean_avg(pair([2.0, 1.0], [1.0, 2.0])) == 0.0

    def test_vbar_mean_mean_prediction(self):
        assert v_mean_avg(pair([1.0, 1.0], [0.0, 2.0])) == 0.0

    def test_vbar_median_extremes(self):
        assert v_median_avg(pair([3.0, 3.0], [1.0, 2.0])) == 0.5
        assert v_median_avg(pair([0.0, 0.0], [1.0, 2.0])) == -0.5

    def test_vbar_median_balanced(self):
        assert v_median_avg(pair([2.0, 1.0], [1.0, 2.0])) == 0.0


class TestInvariances:
    def test_translation_invariance(self):
        rng = np.random.default_rng(28)
        for p in random_pairs(100, seed=29):
            c = float(rng.uniform(-50.0, 50.0))
            for loss in (l_w, l_nr2):
                base = loss(p)
                shifted = loss(pair(p.z + c, p.y + c))
                assert abs(shifted - base) <= 1e-10 * (1.0 + abs(base))

    def test_scale_invariance(self):
        rng = np.random.default_rng(30)
        for p in random_pairs(100, seed=31):
            c = float(rng.uniform(0.05, 20.0) * rng.choice([-1.0, 1.0]))
            for loss in (l_w, l_nr2):
                base = loss(p)
                scaled = loss(pair(c * p.z, c * p.y))
                assert abs(scaled - base) <= 1e-10 * (1.0 + abs(base))

    def test_bounds(self):
        for p in random_pairs(300, seed=32):
            assert 0.0 <= l_w(p) <= 1.0
            assert 0.0 <= l_nr2(p) <= 1.0


def _snapped_ratio(num, den):
    if den == 0.0:
        raise UndefinedValueError("agreement loss denominator is zero")
    value = num / den
    return 1.0 if 1.0 < value <= 1.0 + 1e-12 else value


def mean_sum_mse(z, y):
    """Reference: the losses written with np.mean and np.sum."""
    d = z - y
    return float(np.mean(d * d))


def mean_sum_l_w(z, y):
    mu = float(np.mean(y))
    d = z - y
    path = np.abs(z - mu) + np.abs(mu - y)
    return _snapped_ratio(float(np.sum(d * d)), float(np.sum(path * path)))


def mean_sum_l_nr2(z, y):
    mu = float(np.mean(y))
    d = z - y
    dz = z - mu
    dy = mu - y
    den = (math.sqrt(float(np.sum(dz * dz))) + math.sqrt(float(np.sum(dy * dy)))) ** 2
    return _snapped_ratio(float(np.sum(d * d)), den)


class TestKernels:
    def test_same_bits_as_mean_sum_formulas(self):
        rng = np.random.default_rng(40)
        lengths = set()
        for i in range(1000):
            n = int(np.exp(rng.uniform(np.log(2), np.log(100_001))))
            lengths.add(n)
            loc, scale = rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-3, 3)
            y = rng.normal(loc, scale, n)
            z = y + rng.normal(0.0, scale * rng.uniform(0.01, 3.0), n)
            if i % 10 == 0:
                z[: n // 2] = y[: n // 2]
            p = pair(z, y)
            for loss, formula in ((mse, mean_sum_mse), (l_w, mean_sum_l_w), (l_nr2, mean_sum_l_nr2)):
                value = loss(p)
                assert type(value) is float
                assert struct.pack("<d", value) == struct.pack("<d", formula(p.z, p.y))
        assert min(lengths) < 10 and max(lengths) > 50_000

    def test_overflowing_denominator_is_nan_not_zero(self):
        # The sums of the numerators stay finite; the denominators do not.
        y = np.array([1e153] * 9 + [-9e153])
        z = y.copy()
        z[-1] += 1e140
        with np.errstate(over="ignore"):
            assert math.isnan(l_w(pair(z, y)))
            assert l_w(pair(y, y)) == 0.0
        assert math.isnan(l_nr2(pair([9e153, -8.9e153], [9e153, -9e153])))


def dispatch_lp_mean(y, p):
    """Reference: lp_mean with its gradient summed by np.sum."""
    if p == 1.0:
        return float(np.median(y))
    if p == 2.0:
        return float(np.mean(y))
    lo, hi = float(np.min(y)), float(np.max(y))
    if lo == hi:
        return lo
    if math.isinf(p):
        return 0.5 * (lo + hi)

    def grad(theta):
        d = theta - y
        return float(np.sum(np.copysign(np.abs(d) ** (p - 1.0), d)))

    g_lo, g_hi = grad(lo), grad(hi)
    if g_lo >= 0.0:
        return lo
    if g_hi <= 0.0:
        return hi
    side = 0
    for _ in range(200):
        if hi - lo <= LP_MEAN_TOLERANCE:
            break
        mid = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        g_mid = grad(mid)
        if g_mid > 0.0:
            hi, g_hi = mid, g_mid
            if side == 1:
                g_lo *= 0.5
            side = 1
        elif g_mid < 0.0:
            lo, g_lo = mid, g_mid
            if side == -1:
                g_hi *= 0.5
            side = -1
        else:
            return mid
    return 0.5 * (lo + hi)


def dispatch_l_kbb(z, y, p):
    """Reference: the L_p losses written with np.mean, np.sum and np.max."""
    mu = float(np.mean(y))
    err = np.abs(z - y)
    path = np.abs(z - mu) + np.abs(mu - y)
    if math.isinf(p):
        return _snapped_ratio(float(np.max(err)), float(np.max(path)))
    return _snapped_ratio(float(np.sum(err**p)), float(np.sum(path**p)))


def dispatch_l_nrp(z, y, p):
    m = dispatch_lp_mean(y, p)
    err, dz, dy = np.abs(z - y), np.abs(z - m), np.abs(m - y)
    if math.isinf(p):
        return _snapped_ratio(float(np.max(err)), float(np.max(dz)) + float(np.max(dy)))
    den = (float(np.sum(dz**p)) ** (1.0 / p) + float(np.sum(dy**p)) ** (1.0 / p)) ** p
    return _snapped_ratio(float(np.sum(err**p)), den)


def dispatch_l_lmc(z, y, f):
    num = float(np.sum(np.abs(z - y)))
    return _snapped_ratio(num, float(np.sum(np.abs(z - f)) + np.sum(np.abs(f - y))))


class TestLpKernels:
    def test_same_bits_as_dispatching_formulas(self):
        rng = np.random.default_rng(41)
        exponents = (1.0, 1.5, 2.0, 3.0, math.inf)
        lengths = set()
        for i in range(1000):
            n = int(np.exp(rng.uniform(np.log(2), np.log(100_001))))
            lengths.add(n)
            loc, scale = rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-3, 3)
            y = rng.normal(loc, scale, n)
            z = y + rng.normal(0.0, scale * rng.uniform(0.01, 3.0), n)
            if i % 10 == 0:
                z[: n // 2] = y[: n // 2]
            p = pair(z, y)
            e = exponents[i % len(exponents)]
            checks = (
                (lp_mean(y, e), dispatch_lp_mean(y, e)),
                (l_kbb(p, e), dispatch_l_kbb(z, y, e)),
                (l_nrp(p, e), dispatch_l_nrp(z, y, e)),
                (l_lmc_mean(p), dispatch_l_lmc(z, y, float(np.mean(y)))),
                (l_lmc_median(p), dispatch_l_lmc(z, y, float(np.median(y)))),
                (mae(p), float(np.mean(np.abs(z - y)))),
                (v_mean_avg(p), float(np.mean(z - y))),
                (v_median_avg(p), float(np.mean(((z - y) >= 0.0).astype(float) - 0.5))),
            )
            for value, reference in checks:
                assert type(value) is float
                assert struct.pack("<d", value) == struct.pack("<d", reference)
        assert min(lengths) < 10 and max(lengths) > 50_000


@st.composite
def _paired_lists(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    # width=32 keeps squared differences clear of float64 underflow.
    floats = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False, width=32)
    y = draw(st.lists(floats, min_size=n, max_size=n))
    z = draw(st.lists(floats, min_size=n, max_size=n))
    return z, y


@given(_paired_lists())
@settings(max_examples=300, deadline=None)
def test_agreement_losses_bounded_or_undefined(zy):
    z, y = zy
    p = pair(z, y)
    try:
        values = (l_w(p), l_nr2(p))
    except UndefinedValueError:
        assert not p.agreement_defined
        return
    for v in values:
        assert -1e-12 <= v <= 1.0 + 1e-12


class TestMetricReport:
    """``score`` returns the checked metric values of one prediction."""

    @staticmethod
    def score_value(monkeypatch, name, value):
        """``score`` of metric *name* when its function returns *value*."""
        monkeypatch.setitem(METRICS, name, dataclasses.replace(METRICS[name], fn=lambda p: value))
        return score(pair([0.0, 1.0], [0.0, 2.0]), [name])[name]

    def test_rejects_duplicate_names(self):
        with pytest.raises(InvalidInputError, match="repeat"):
            score(pair([0.0, 1.0], [0.0, 2.0]), ["mse", "mse"])

    def test_rejects_out_of_range_agreement(self, monkeypatch):
        with pytest.raises(InvalidInputError, match=r"agreement metric lw out of \[0, 1\]: 1.5"):
            self.score_value(monkeypatch, "lw", 1.5)

    def test_rejects_non_finite_value(self, monkeypatch):
        with pytest.raises(InvalidInputError, match="metric mse is not finite: inf"):
            self.score_value(monkeypatch, "mse", math.inf)

    def test_rejects_agreement_value_beyond_snap(self, monkeypatch):
        with pytest.raises(InvalidInputError, match="lw"):
            self.score_value(monkeypatch, "lw", 1.0 + 1e-10)

    def test_clamps_boundary_rounding(self, monkeypatch):
        assert self.score_value(monkeypatch, "lw", 1.0 + 1e-12) == 1.0

    def test_undefined_value_propagates(self):
        with pytest.raises(UndefinedValueError, match="NSE reference is undefined"):
            score(pair([1.0, 2.0], [3.0, 3.0]), ["nse"])



@pytest.mark.parametrize(
    "spec, message",
    [
        ("mae:p=2", "metric 'mae' takes no parameter"),
        ("lmc:f=mode", "metric lmc requires f=mean or f=median"),
        ("kbb", "metric kbb requires p=<value>"),
        ("nrp:p=x", "invalid exponent in 'nrp:p=x'"),
        ("rmse", "unknown metric 'rmse'"),
    ],
)
def test_malformed_metric_spec_named(spec, message):
    with pytest.raises(InvalidInputError, match=message):
        score(pair([0.0, 1.0], [0.0, 2.0]), ["mse", spec])
