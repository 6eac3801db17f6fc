"""Estimators: closed forms vs numerical minimization, derivative oracles."""

import math
import struct
import warnings

import numpy as np
import pytest

from agreeloss import estimators, hydro, vector_stats
from agreeloss.estimators import (
    CLOSED_FORM,
    NUMERICAL,
    MinimizerConfig,
    fit_constant_lnr2,
    fit_constant_lw,
    fit_linear_lnr2,
    fit_linear_lw,
    fit_linear_ols,
    lnr2_constant_derivative,
    lnr2_constant_profile,
    lnr2_constant_second_derivative,
    lw_constant_derivative,
    lw_constant_profile,
    lw_constant_second_derivative,
    minimize,
)
from agreeloss.exceptions import (
    ConvergenceError,
    DegenerateFitWarning,
    InvalidInputError,
    NonDifferentiablePointError,
    SingularDesignError,
    UndefinedValueError,
)
from agreeloss.hydro import calibrate
from agreeloss.losses import SeriesPair, _l_w, l_nr2, l_w, mse, nse
from agreeloss.simulate import Gaussian, Rng, sample
from agreeloss.vector_stats import mad, mean, pearson, sign, std

from conftest import synthetic_series


def central_difference(fn, t, h):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def random_nonconstant(rng, n=50, loc=0.0, scale=1.0):
    return rng.normal(loc, scale, n)


class TestMinimize:
    def test_quadratic_bowl(self):
        result = minimize(lambda t: (t[0] - 3.0) ** 2 + (t[1] + 1.0) ** 2, [(0.0, 0.0)])
        assert result.converged
        np.testing.assert_allclose(result.point, [3.0, -1.0], atol=1e-6)
        assert result.value <= 1e-10

    def test_invalid_start_rejected(self):
        with pytest.raises(InvalidInputError):
            minimize(lambda t: float("nan"), [(0.0,)])
        with pytest.raises(InvalidInputError):
            minimize(lambda t: t[0], [(float("inf"),)])

    @pytest.mark.parametrize(
        "starts",
        [(0.0, 0.0), [], [()], [(0.0,), (0.0, 1.0)], [[(0.0,)]], "ab"],
        ids=["flat-tuple", "no-start", "empty-point", "ragged", "nested", "text"],
    )
    def test_starts_rejected_by_shape(self, starts):
        with pytest.raises(InvalidInputError, match="equal-length points"):
            minimize(lambda t: 0.0, starts)

    def test_deterministic(self):
        fn = lambda t: (t[0] - 1.0) ** 4 + abs(t[1])
        a = minimize(fn, [(5.0, 2.0)])
        b = minimize(fn, [(5.0, 2.0)])
        assert a.value == b.value
        np.testing.assert_array_equal(a.point, b.point)

    def test_budget_exhaustion_flags_nonconvergence(self):
        cfg = MinimizerConfig(max_iterations=2)
        with pytest.raises(ConvergenceError):
            minimize(lambda t: (t[0] - 3.0) ** 2, [(100.0,)], cfg)

    def test_recovers_lnr2_constant_minimum_from_upper_start(self):
        # Closed form gives mean + sd; the numerical route must agree.
        rng = np.random.default_rng(41)
        for _ in range(10):
            y = random_nonconstant(rng)
            mu, sd = mean(y), std(y)
            result = minimize(lambda t: lnr2_constant_profile(t[0], y), [(mu + 0.5 * sd,)])
            assert abs(result.point[0] - (mu + sd)) <= 1e-6
            assert abs(result.value - 0.5) <= 1e-9

    def test_recovers_lw_constant_minimum_from_lower_start(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            y = random_nonconstant(rng)
            mu, sd, md = mean(y), std(y), mad(y)
            result = minimize(lambda t: lw_constant_profile(t[0], y), [(mu - 0.5 * sd,)])
            assert abs(result.point[0] - (mu - sd)) <= 1e-6
            assert abs(result.value - sd / (sd + md)) <= 1e-9

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            MinimizerConfig(max_iterations=0)
        with pytest.raises(InvalidInputError):
            MinimizerConfig(restarts=-1)


class TestClosedFormNumericalAgreement:
    def test_simplex_recovers_both_minimizers_of_both_profiles(self):
        # From a start between the mean and either minimizer, the descent
        # must land on that side's closed-form solution.
        rng = np.random.default_rng(40)
        for _ in range(100):
            y = random_nonconstant(rng)
            mu, sd, md = mean(y), std(y), mad(y)
            for side in (-1.0, 1.0):
                start = (mu + side * 0.5 * sd,)
                nr = minimize(lambda t: lnr2_constant_profile(t[0], y), [start])
                assert abs(nr.point[0] - (mu + side * sd)) <= 1e-6
                assert abs(nr.value - 0.5) <= 1e-9
                lw = minimize(lambda t: lw_constant_profile(t[0], y), [start])
                assert abs(lw.point[0] - (mu + side * sd)) <= 1e-6
                assert abs(lw.value - sd / (sd + md)) <= 1e-9


class TestConstantFits:
    def test_lw_pair_example(self):
        fit = fit_constant_lw(np.array([0.0, 2.0]))
        assert fit.theta_minus == 0.0 and fit.theta_plus == 2.0
        assert fit.min_loss == 0.5
        assert fit.loss_name == "lw"

    def test_lw_three_point_example(self):
        fit = fit_constant_lw(np.array([1.0, 2.0, 3.0]))
        sd = math.sqrt(2.0 / 3.0)
        assert math.isclose(fit.theta_plus, 2.0 + sd, rel_tol=1e-14)
        assert math.isclose(fit.theta_minus, 2.0 - sd, rel_tol=1e-14)
        assert math.isclose(fit.min_loss, sd / (sd + 2.0 / 3.0), rel_tol=1e-14)

    def test_lnr2_minimum_is_half_everywhere(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            y = rng.normal(rng.uniform(-9, 9), rng.uniform(0.1, 7.0), int(rng.integers(2, 90)))
            fit = fit_constant_lnr2(y)
            assert fit.min_loss == 0.5
            assert abs((fit.theta_plus - fit.theta_minus) - 2.0 * std(y)) <= 1e-10

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fit", [fit_constant_lw, fit_constant_lnr2])
    def test_overflowing_moments_named_without_numpy_warnings(self, fit):
        with pytest.raises(InvalidInputError, match="moments of the observations overflow"):
            fit([1e200, -1e200, 0.0])

    def test_constant_input_undefined(self):
        with pytest.raises(UndefinedValueError):
            fit_constant_lw(np.array([5.0, 5.0]))
        with pytest.raises(UndefinedValueError):
            fit_constant_lnr2(np.array([5.0, 5.0]))

    def test_minimizers_attain_min_loss_when_rescored(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            y = random_nonconstant(rng, n=40)
            for fit, loss in ((fit_constant_lw(y), l_w), (fit_constant_lnr2(y), l_nr2)):
                for theta in (fit.theta_plus, fit.theta_minus):
                    scored = loss(SeriesPair(np.full(y.size, theta), y))
                    assert abs(scored - fit.min_loss) <= 1e-12


class TestProfiles:
    def test_matches_loss_on_constant_predictions(self):
        rng = np.random.default_rng(45)
        for _ in range(25):
            y = random_nonconstant(rng, n=30)
            theta = float(rng.uniform(-4, 4))
            p = SeriesPair(np.full(y.size, theta), y)
            assert abs(lw_constant_profile(theta, y) - l_w(p)) <= 1e-12
            assert abs(lnr2_constant_profile(theta, y) - l_nr2(p)) <= 1e-12

    def test_value_one_at_mean(self):
        y = np.array([0.3, 1.1, 4.0])
        assert lw_constant_profile(float(np.mean(y)), y) == 1.0
        assert lnr2_constant_profile(float(np.mean(y)), y) == 1.0

    def test_hand_values_at_zero(self):
        y = np.array([0.0, 2.0])
        assert lw_constant_profile(0.0, y) == 0.5
        assert lnr2_constant_profile(0.0, y) == 0.5

    def test_tends_to_one_far_away(self):
        y = np.array([0.0, 2.0, 5.0])
        for theta in (-1e8, 1e8):
            assert abs(lw_constant_profile(theta, y) - 1.0) <= 1e-6
            assert abs(lnr2_constant_profile(theta, y) - 1.0) <= 1e-6

    def test_minimum_values(self):
        y = np.random.default_rng(46).normal(2.0, 3.0, 60)
        lw_fit = fit_constant_lw(y)
        nr_fit = fit_constant_lnr2(y)
        assert abs(lw_constant_profile(lw_fit.theta_plus, y) - lw_fit.min_loss) <= 1e-12
        assert abs(lnr2_constant_profile(nr_fit.theta_minus, y) - 0.5) <= 1e-12

    def test_constant_y_undefined(self):
        with pytest.raises(UndefinedValueError):
            lw_constant_profile(1.0, np.array([2.0, 2.0]))


class TestDerivatives:
    def test_zero_at_minimizers(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            y = random_nonconstant(rng, n=35)
            lw_fit = fit_constant_lw(y)
            for theta in (lw_fit.theta_plus, lw_fit.theta_minus):
                assert abs(lw_constant_derivative(theta, y)) <= 1e-10
                assert abs(lnr2_constant_derivative(theta, y)) <= 1e-10

    def test_lw_hand_value(self):
        # Finite-difference oracle around theta = 0.5 for y = (0, 2).
        y = np.array([0.0, 2.0])
        fd = central_difference(lambda t: lw_constant_profile(t, y), 0.5, 1e-6)
        analytic = lw_constant_derivative(0.5, y)
        assert abs(analytic - fd) <= 1e-8
        assert round(analytic, 4) == 0.2963

    def test_lnr2_hand_value(self):
        y = np.array([0.0, 2.0])
        fd = central_difference(lambda t: lnr2_constant_profile(t, y), 0.5, 1e-6)
        assert abs(lnr2_constant_derivative(0.5, y) - fd) <= 1e-8

    def test_kink_raises_with_limits(self):
        y = np.array([0.0, 2.0])  # mean 1, sd 1, mad 1
        with pytest.raises(NonDifferentiablePointError) as excinfo:
            lw_constant_derivative(1.0, y)
        assert excinfo.value.left_limit == 2.0
        assert excinfo.value.right_limit == -2.0
        with pytest.raises(NonDifferentiablePointError) as excinfo:
            lnr2_constant_derivative(1.0, y)
        assert excinfo.value.left_limit == 2.0
        assert excinfo.value.right_limit == -2.0

    def test_one_sided_limits_match_formulas(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            y = random_nonconstant(rng, n=40, loc=3.0, scale=2.0)
            mu, sd, md = mean(y), std(y), mad(y)
            eps = 1e-9 * (1.0 + sd)
            lw_limit = 2.0 * md / sd**2
            assert abs(lw_constant_derivative(mu + eps, y) + lw_limit) <= 1e-6 * (1 + lw_limit)
            assert abs(lw_constant_derivative(mu - eps, y) - lw_limit) <= 1e-6 * (1 + lw_limit)
            nr_limit = 2.0 / sd
            assert abs(lnr2_constant_derivative(mu + eps, y) + nr_limit) <= 1e-6 * (1 + nr_limit)
            assert abs(lnr2_constant_derivative(mu - eps, y) - nr_limit) <= 1e-6 * (1 + nr_limit)

    def test_second_derivative_positive_at_minimizers(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            y = random_nonconstant(rng, n=45)
            mu, sd, md = mean(y), std(y), mad(y)
            fit = fit_constant_lnr2(y)
            # 1 / (4 sd^2) at the norm-ratio minimizers.
            expected_nr = 1.0 / (4.0 * sd * sd)
            got_nr = lnr2_constant_second_derivative(fit.theta_plus, y)
            assert abs(got_nr - expected_nr) <= 1e-10 * (1.0 + expected_nr)
            # mad / (sd (sd + mad)^2) at the element-wise minimizers.
            expected_lw = md / (sd * (sd + md) ** 2)
            got_lw = lw_constant_second_derivative(mu - sd, y)
            assert abs(got_lw - expected_lw) <= 1e-10 * (1.0 + expected_lw)

    @pytest.mark.parametrize(
        "fn, theta",
        [
            (lw_constant_derivative, 1e100),
            (lw_constant_second_derivative, 1e100),
            (lnr2_constant_derivative, 1e103),
            (lnr2_constant_second_derivative, 1e100),
        ],
    )
    def test_overflowing_denominator_is_nan(self, fn, theta):
        # Python's float power raises OverflowError here; the profiles read NaN.
        y = [0.0, 1.0, 2.0]
        assert math.isnan(fn(theta, y)) and math.isnan(fn(-theta, y))
        assert fn(theta / 1e60, y) != 0.0

    def test_second_derivative_matches_first_derivative_slope(self):
        rng = np.random.default_rng(50)
        for _ in range(25):
            y = random_nonconstant(rng, n=30)
            mu, sd = mean(y), std(y)
            theta = mu + float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)) * sd
            h = 1e-6 * (1.0 + abs(theta))
            for first, second in (
                (lw_constant_derivative, lw_constant_second_derivative),
                (lnr2_constant_derivative, lnr2_constant_second_derivative),
            ):
                fd = central_difference(lambda t: first(t, y), theta, h)
                analytic = second(theta, y)
                assert abs(analytic - fd) <= 1e-5 * (1.0 + abs(analytic))


# Reference moment formulas, one call per moment: each validates and
# copies y and takes its own mean.
def per_call_mean(y):
    return float(np.mean(np.array(y, dtype=float)))


def per_call_variance(y):
    arr = np.array(y, dtype=float)
    centered = arr - np.mean(arr)
    return max(0.0, float(np.mean(centered * centered)))


def per_call_std(y):
    return math.sqrt(per_call_variance(y))


def per_call_mad(y):
    arr = np.array(y, dtype=float)
    return float(np.mean(np.abs(np.mean(arr) - arr)))


def bits(*values):
    return tuple(struct.pack("<d", v) for v in values)


class TestMomentsBits:
    """The constant family and nse against the per-call moment formulas."""

    @staticmethod
    def expected(y, theta):
        """(function, expected values or kink limits) for each function."""
        mu, sd, md = per_call_mean(y), per_call_std(y), per_call_mad(y)
        u = theta - mu
        cases = [
            (fit_constant_lw, (mu + sd, mu - sd, sd / (sd + md))),
            (fit_constant_lnr2, (mu + sd, mu - sd, 0.5)),
            (lw_constant_profile, ((u * u + sd**2) / (u * u + sd**2 + 2.0 * abs(u) * md),)),
            (lnr2_constant_profile, ((u * u + sd * sd) / (abs(u) + sd) ** 2,)),
        ]
        if u == 0.0:
            lw_limit, lw2_limit = 2.0 * md / (sd * sd), 8.0 * md * md / sd**4
            return cases + [
                (lw_constant_derivative, (lw_limit, -lw_limit)),
                (lw_constant_second_derivative, (lw2_limit, lw2_limit)),
                (lnr2_constant_derivative, (2.0 / sd, -2.0 / sd)),
                (lnr2_constant_second_derivative, (8.0 / (sd * sd), 8.0 / (sd * sd))),
            ]
        lw_den = u * u + sd * sd + 2.0 * abs(u) * md
        sd2 = sd * sd
        return cases + [
            (lw_constant_derivative, (2.0 * md * (u * u - sd * sd) * sign(u) / lw_den**2,)),
            (
                lw_constant_second_derivative,
                (4.0 * md * (2.0 * md * sd2 + u * (3.0 * sd2 - u * u) * sign(u)) / lw_den**3,),
            ),
            (lnr2_constant_derivative, (2.0 * sd * (u - sign(u) * sd) / (sd + abs(u)) ** 3,)),
            (lnr2_constant_second_derivative, (4.0 * sd * (2.0 * sd - abs(u)) / (sd + abs(u)) ** 4,)),
        ]

    @staticmethod
    def observed(fn, theta, y):
        if fn in (fit_constant_lw, fit_constant_lnr2):
            fit = fn(y)
            return fit.theta_plus, fit.theta_minus, fit.min_loss
        try:
            return (fn(theta, y),)
        except NonDifferentiablePointError as exc:
            return exc.left_limit, exc.right_limit

    def test_same_bits_as_per_call_formulas(self):
        rng = np.random.default_rng(51)
        lengths = set()
        for i in range(1000):
            n = int(np.exp(rng.uniform(np.log(2), np.log(100_001))))
            lengths.add(n)
            loc, scale = rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-3, 3)
            y = rng.normal(loc, scale, n)
            mu = per_call_mean(y)
            # Every tenth vector is evaluated at the kink theta = mean(y).
            theta = mu if i % 10 == 0 else mu + scale * rng.uniform(-3.0, 3.0)
            for fn, want in self.expected(y, theta):
                got = self.observed(fn, theta, y)
                assert all(type(v) is float for v in got), fn.__name__
                assert bits(*got) == bits(*want), fn.__name__
            pair = SeriesPair(y + rng.normal(0.0, scale, n), y)
            assert bits(nse(pair)) == bits(1.0 - mse(pair) / per_call_variance(y))
        assert min(lengths) < 10 and max(lengths) > 50_000

    @pytest.mark.parametrize(
        "fn",
        [
            fit_constant_lw,
            fit_constant_lnr2,
            lw_constant_profile,
            lnr2_constant_profile,
            lw_constant_derivative,
            lnr2_constant_derivative,
            lw_constant_second_derivative,
            lnr2_constant_second_derivative,
        ],
    )
    def test_validates_y_once(self, monkeypatch, fn):
        calls = []

        def counted(original):
            def as_vector(values):
                calls.append(values)
                return original(values)

            return as_vector

        for module in (estimators, vector_stats):
            monkeypatch.setattr(module, "as_vector", counted(module.as_vector))
        y = np.random.default_rng(52).normal(0.0, 1.0, 50)
        self.observed(fn, 0.3, y)
        assert len(calls) == 1


# Reference linear fits, one centring per call: each fit and the
# correlation validate x and y and centre them again.
def per_call_sums(x, y):
    xc = x - np.mean(x)
    yc = y - np.mean(y)
    return xc, yc


def per_call_pearson(x, y):
    xc, yc = per_call_sums(x, y)
    nx = float(np.sqrt(np.dot(xc, xc)))
    ny = float(np.sqrt(np.dot(yc, yc)))
    return min(1.0, max(-1.0, float(np.dot(xc, yc)) / (nx * ny)))


def per_call_ols(x, y):
    xc, yc = per_call_sums(x, y)
    slope = float(np.dot(xc, yc) / np.dot(xc, xc))
    intercept = float(np.mean(y) - slope * np.mean(x))
    residual = slope * x + intercept - y
    return slope, intercept, float(np.mean(residual * residual)), False


def per_call_lnr2(x, y):
    rho = per_call_pearson(x, y)
    if rho == 0.0:
        return 0.0, float(np.mean(y)), 0.5, True
    xc, yc = per_call_sums(x, y)
    slope = sign(rho) * math.sqrt(float(np.dot(yc, yc)) / float(np.dot(xc, xc)))
    intercept = float(np.mean(y) - slope * np.mean(x))
    return slope, intercept, (1.0 - abs(rho)) / 2.0, False


def per_call_lw(x, y, config):
    """(slope, intercept, loss) of the descent from both closed-form starts."""

    def objective(theta):
        z = theta[0] * x + theta[1]
        return _l_w(z, y) if np.isfinite(z).all() else math.inf

    starts = [per_call_ols(x, y)[:2], per_call_lnr2(x, y)[:2]]
    point, value, _, _ = reference_minimize(objective, starts, config)
    return float(point[0]), float(point[1]), value


class TestLinearBits:
    """The linear fits and pearson against the per-call formulas."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(61)
        for i in range(1000):
            if i % 100 == 7:
                # Exactly uncorrelated: the flagged flat norm-ratio fit.
                scale, shift = 2.0 ** int(rng.integers(-8, 9)), float(rng.integers(-4, 5))
                yield i, scale * np.array([1.0, 2.0, 3.0]) + shift, np.array([1.0, 0.0, 1.0])
                continue
            n = int(np.exp(rng.uniform(np.log(2), np.log(100_001))))
            x = rng.normal(rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-3, 3), n)
            noise = rng.normal(rng.uniform(-1e3, 1e3), 10.0 ** rng.uniform(-3, 3), n)
            yield i, x, rng.uniform(-5.0, 5.0) * x + noise

    def test_same_bits_as_per_call_formulas(self):
        lengths, flat = set(), 0
        for _, x, y in self.pairs():
            lengths.add(x.size)
            assert bits(pearson(x, y)) == bits(per_call_pearson(x, y))
            for fn, reference in ((fit_linear_ols, per_call_ols), (fit_linear_lnr2, per_call_lnr2)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DegenerateFitWarning)
                    fit = fn(x, y)
                slope, intercept, loss, degenerate = reference(x, y)
                got = (fit.slope, fit.intercept, fit.achieved_loss)
                assert all(type(v) is float for v in got), fn.__name__
                assert bits(*got) == bits(slope, intercept, loss), fn.__name__
                assert fit.degenerate is degenerate, fn.__name__
            flat += fit.degenerate
        assert min(lengths) < 10 and max(lengths) > 50_000
        assert flat == 10

    def test_lw_same_result_or_error_as_per_call_starts(self):
        outcomes = []
        for i, x, y in self.pairs():
            if i % 10 or x.size > 2_000:
                continue
            # A short budget on every other case makes the descents fail.
            config = MinimizerConfig(max_iterations=60 if i % 20 else 10_000)
            try:
                want = per_call_lw(x, y, config)
            except ConvergenceError as want_error:
                with pytest.raises(ConvergenceError) as got_error:
                    fit_linear_lw(x, y, config)
                got = got_error.value
                assert bits(got.value, *got.point) == bits(want_error.value, *want_error.point)
                outcomes.append("error")
            else:
                fit = fit_linear_lw(x, y, config)
                assert bits(fit.slope, fit.intercept, fit.achieved_loss) == bits(*want)
                outcomes.append("fit")
        assert len(outcomes) > 50 and set(outcomes) == {"error", "fit"}

    @pytest.mark.parametrize("fn", [fit_linear_ols, fit_linear_lnr2, fit_linear_lw])
    def test_validates_and_centres_once(self, monkeypatch, fn):
        calls = {"as_vector": 0, "_centred_sums": 0}

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for module in (estimators, vector_stats):
            monkeypatch.setattr(module, "as_vector", counted("as_vector", module.as_vector))
        monkeypatch.setattr(
            estimators, "_centred_sums", counted("_centred_sums", estimators._centred_sums)
        )
        rng = np.random.default_rng(62)
        x = rng.normal(0.0, 1.0, 50)
        fn(x, 0.5 * x + rng.normal(0.0, 1.0, 50))
        assert calls == {"as_vector": 2, "_centred_sums": 1}


# The simplex as it ran on numpy arrays, one call per start, before the
# descent moved onto Python floats and took all starts at once.  Kept as
# the reference that minimize must match bit for bit.
REFERENCE_TOLERANCE = 1e-10
REFERENCE_FIRST_STEP = 0.1


def _reference_eval(objective, point):
    value = float(objective(point))
    return math.inf if math.isnan(value) else value


def _reference_descent(objective, x0, scale, budget):
    points = [x0.copy()]
    for i in range(x0.size):
        p = x0.copy()
        p[i] += scale * (abs(p[i]) if p[i] != 0.0 else 1.0)
        points.append(p)
    values = [_reference_eval(objective, p) for p in points]
    iters = 0
    while True:
        order = sorted(range(len(points)), key=lambda i: values[i])
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        x_spread = max(float(np.max(np.abs(p - points[0]))) for p in points[1:])
        if x_spread <= REFERENCE_TOLERANCE and values[-1] - values[0] <= REFERENCE_TOLERANCE:
            return points[0], values[0], iters, True
        if iters >= budget:
            return points[0], values[0], iters, False
        iters += 1
        centroid = np.mean(points[:-1], axis=0)
        worst = points[-1]
        reflected = centroid + (centroid - worst)
        f_reflected = _reference_eval(objective, reflected)
        if values[0] <= f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_expanded = _reference_eval(objective, expanded)
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = centroid + 0.5 * (reflected - centroid)
            f_contracted = _reference_eval(objective, contracted)
            if f_contracted <= f_reflected:
                points[-1], values[-1] = contracted, f_contracted
                continue
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_contracted = _reference_eval(objective, contracted)
            if f_contracted < values[-1]:
                points[-1], values[-1] = contracted, f_contracted
                continue
        for i in range(1, len(points)):
            points[i] = points[0] + 0.5 * (points[i] - points[0])
            values[i] = _reference_eval(objective, points[i])


def _reference_one_start(objective, start, config):
    best_x = np.asarray(start, dtype=float).reshape(-1)
    best_f = _reference_eval(objective, best_x)
    assert math.isfinite(best_f)
    remaining, total, converged, scale = config.max_iterations, 0, False, REFERENCE_FIRST_STEP
    for _ in range(config.restarts + 1):
        x_run, f_run, used, ok = _reference_descent(objective, best_x, scale, remaining)
        total += used
        remaining -= used
        if f_run <= best_f:
            best_x, best_f = x_run, f_run
        converged = ok
        if not ok or remaining <= 0:
            break
        scale *= 0.5
    return best_x, best_f, total, converged


def reference_minimize(objective, starts, config):
    """``(point, value, iterations, converged)``; raises ConvergenceError as minimize does."""
    results = [_reference_one_start(objective, start, config) for start in starts]
    best = min(results, key=lambda result: result[1])
    if not any(result[3] for result in results):
        raise ConvergenceError(
            f"simplex minimization did not converge within {config.max_iterations} "
            "iterations from any start",
            point=best[0],
            value=best[1],
        )
    return best[0], best[1], sum(result[2] for result in results), best[3]


def current_minimize(objective, starts, config):
    result = minimize(objective, starts, config)
    return result.point, result.value, result.iterations, result.converged


def _outcome(minimizer, objective, starts, config):
    """The evaluated points and the result or error of one run, all as bits."""
    evaluated = []

    def recording(point):
        evaluated.append(bits(*(float(v) for v in point)))
        return objective(point)

    try:
        # The numpy reference warns where vertices overflow; floats do not.
        with np.errstate(all="ignore"):
            point, value, iterations, converged = minimizer(recording, starts, config)
    except ConvergenceError as error:
        assert isinstance(error.point, np.ndarray)
        outcome = ("error", str(error), bits(*error.point), bits(error.value))
    else:
        assert isinstance(point, np.ndarray) and type(value) is float
        outcome = ("result", bits(*point), bits(value), iterations, converged)
    return outcome, evaluated


def assert_same_descent(objective, starts, config=MinimizerConfig()):
    """minimize and the numpy reference evaluate the same points and agree bit for bit."""
    want = _outcome(reference_minimize, objective, starts, config)
    got = _outcome(current_minimize, objective, starts, config)
    assert got[0] == want[0]
    assert got[1] == want[1]
    return want[0][0]


def rosenbrock(t):
    a, b = float(t[0]), float(t[1])
    return (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2


BUDGETS = [MinimizerConfig(max_iterations=1), MinimizerConfig(max_iterations=60), MinimizerConfig()]


class TestMinimizeBits:
    """minimize against the numpy reference: same points, results and errors."""

    @pytest.mark.parametrize("config", BUDGETS, ids=["budget1", "budget60", "default"])
    def test_constant_profiles(self, config):
        rng = np.random.default_rng(71)
        for _ in range(5):
            y = random_nonconstant(rng)
            mu, sd = mean(y), std(y)
            for profile in (lw_constant_profile, lnr2_constant_profile):
                objective = lambda t: profile(t[0], y)
                assert_same_descent(objective, [(mu - 0.5 * sd,)], config)
                assert_same_descent(objective, [(mu + 0.5 * sd,), (mu - 2.0 * sd,)], config)

    def test_linear_lw_objective(self):
        outcomes = []
        for i, x, y in TestLinearBits.pairs():
            if i % 10 or x.size > 2_000:
                continue

            def objective(theta):
                z = theta[0] * x + theta[1]
                return _l_w(z, y) if np.isfinite(z).all() else math.inf

            starts = [per_call_ols(x, y)[:2], per_call_lnr2(x, y)[:2]]
            config = BUDGETS[(i // 10) % 3]
            outcomes.append(assert_same_descent(objective, starts, config))
        assert len(outcomes) >= 50 and set(outcomes) == {"error", "result"}

    @pytest.mark.parametrize("loss", ["se", "lnr2", "lw"])
    def test_bucket_calibration_objective(self, loss, monkeypatch):
        series = synthetic_series(120, noise=0.3, start="2000-01-01")
        spans = ("2000-01-21", "2000-02-29"), ("2000-03-01", "2000-04-29")
        captured = []

        def capture(objective, *args, **kwargs):
            captured.append(objective)
            raise LookupError

        with monkeypatch.context() as patch:
            patch.setattr(hydro, "minimize", capture)
            with pytest.raises(LookupError):
                calibrate(series, 20, *spans, loss)
        objective = captured[0]
        default_starts = [hydro._point_from_params(p) for p in hydro.DEFAULT_STARTS]
        refit = calibrate(series, 20, *spans, "lw" if loss == "se" else "se").params
        outcomes = [
            assert_same_descent(objective, default_starts, config) for config in BUDGETS
        ]
        outcomes.append(assert_same_descent(objective, [hydro._point_from_params(refit)]))
        assert outcomes == ["error", "error", "result", "result"]

    @pytest.mark.parametrize("config", BUDGETS, ids=["budget1", "budget60", "default"])
    def test_rosenbrock(self, config):
        assert_same_descent(rosenbrock, [(-1.2, 1.0)], config)
        assert_same_descent(rosenbrock, [(-1.2, 1.0), (2.0, -0.5), (-1.2, 1.0)], config)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_half_plane(self, bad):
        objective = lambda t: bad if t[0] > 1.0 else rosenbrock(t)
        assert assert_same_descent(objective, [(0.5, 0.5)]) == "result"
        for config in BUDGETS[:2]:
            assert_same_descent(objective, [(0.5, 0.5), (-1.0, 2.0)], config)

    def test_unbounded_descent_reaches_non_finite_points(self):
        # The simplex expands until its vertices overflow and their
        # differences turn NaN.
        coordinates = set()

        def downhill(t):
            coordinates.update(float(v) for v in t)
            return -float(t[0]) - float(t[1])

        assert assert_same_descent(downhill, [(0.0, 0.0)]) == "error"
        assert math.inf in coordinates and any(math.isnan(v) for v in coordinates)

    def test_signed_zero_starts(self):
        bowl = lambda t: sum((float(v) - 0.25) ** 2 for v in t)
        for starts in ([(-0.0,)], [(0.0,), (-0.0,)], [(-0.0, 0.0, -0.0)], [(0.0, -0.0), (-0.0, -0.0)]):
            for config in BUDGETS + [MinimizerConfig(restarts=0), MinimizerConfig(restarts=5)]:
                assert_same_descent(bowl, starts, config)
        assert_same_descent(lambda t: abs(float(t[0])) + 0.0 * float(t[1]), [(-0.0, -0.0)])


class TestFitLinearOls:
    def test_exact_line(self):
        fit = fit_linear_ols([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert math.isclose(fit.slope, 2.0, rel_tol=1e-14)
        assert abs(fit.intercept) <= 1e-13
        assert fit.achieved_loss <= 1e-26
        assert fit.method == CLOSED_FORM

    def test_constant_response(self):
        fit = fit_linear_ols([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert fit.slope == 0.0 and fit.intercept == 5.0

    def test_residual_mean_is_zero(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            x = rng.normal(0, 2, 40)
            y = rng.normal(1, 3, 40)
            fit = fit_linear_ols(x, y)
            residual = fit.predict(x) - y
            assert abs(residual.mean()) <= 1e-10 * (1.0 + np.abs(y).max())

    def test_constant_predictor_rejected(self):
        with pytest.raises(SingularDesignError):
            fit_linear_ols([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


class TestFitLinearLnr2:
    def test_perfect_positive_line(self):
        fit = fit_linear_lnr2([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert math.isclose(fit.slope, 2.0, rel_tol=1e-14)
        assert abs(fit.intercept) <= 1e-13
        assert fit.achieved_loss <= 1e-15

    def test_perfect_negative_line(self):
        fit = fit_linear_lnr2([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0])
        assert math.isclose(fit.slope, -1.0, rel_tol=1e-14)
        assert abs(fit.intercept) <= 1e-13
        assert fit.achieved_loss <= 1e-15

    def test_half_correlation_case(self):
        # rho = 0.5 and ||y_c|| == ||x_c||, so the slope is sign(rho) * 1.
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 3.0, 2.0])
        fit = fit_linear_lnr2(x, y)
        assert math.isclose(fit.slope, 1.0, rel_tol=1e-14)
        assert abs(fit.intercept) <= 1e-13
        assert math.isclose(fit.achieved_loss, 0.25, rel_tol=1e-12)
        # Cross-check against a numerical search over (slope, intercept).
        objective = lambda t: l_nr2(SeriesPair(t[0] * x + t[1], y))
        numeric = minimize(objective, [(fit.slope + 0.4, fit.intercept - 0.4)])
        assert fit.achieved_loss <= numeric.value + 1e-8

    def test_rescoring_reproduces_achieved_loss(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            x = rng.normal(0, 2, 50)
            y = 1.5 * x + rng.normal(0, 1.5, 50)
            fit = fit_linear_lnr2(x, y)
            scored = l_nr2(SeriesPair(fit.predict(x), y))
            assert abs(scored - fit.achieved_loss) <= 1e-12

    def test_slope_magnitude_identity(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            x = rng.normal(0, 3, 60)
            y = rng.normal(0, 1, 60) + rng.uniform(-2, 2) * x
            fit = fit_linear_lnr2(x, y)
            xc = x - x.mean()
            yc = y - y.mean()
            expected = math.sqrt(float(yc @ yc) / float(xc @ xc))
            assert abs(abs(fit.slope) - expected) <= 1e-12 * (1.0 + expected)
            rho = pearson(x, y)
            assert math.copysign(1.0, fit.slope) == math.copysign(1.0, rho)

    def test_degenerate_zero_correlation(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 0.0, 1.0])  # exactly uncorrelated with x
        assert pearson(x, y) == 0.0
        with pytest.warns(DegenerateFitWarning):
            fit = fit_linear_lnr2(x, y)
        assert fit.degenerate
        assert fit.slope == 0.0
        assert fit.intercept == float(np.mean(y))
        assert fit.achieved_loss == 0.5

    @pytest.mark.parametrize("fn", [fit_linear_lnr2, fit_linear_lw])
    @pytest.mark.parametrize("y", [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]], ids=["rho=1", "rho=0"])
    def test_overflowing_slope_named(self, fn, y):
        # sxx is subnormal, so sqrt(syy / sxx) overflows whatever the sign of rho.
        x = np.array([1.0, 2.0, 3.0]) * 2.0**-530
        with pytest.raises(InvalidInputError, match="norm-ratio fit overflows"):
            fn(x, y)

    @pytest.mark.parametrize("fn", [fit_linear_ols, fit_linear_lnr2, fit_linear_lw])
    @pytest.mark.parametrize("overflowing", ["x", "y"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_rejected_without_numpy_warnings(self, fn, overflowing):
        ordinary, huge = [0.0, 1.0, 2.0], [0.0, 1e200, -1e200]
        x, y = (huge, ordinary) if overflowing == "x" else (ordinary, huge)
        with pytest.raises(InvalidInputError, match="overflows"):
            fn(x, y)

    def test_constant_inputs_rejected(self):
        with pytest.raises(SingularDesignError):
            fit_linear_lnr2([1.0, 1.0], [0.0, 2.0])
        with pytest.raises(UndefinedValueError):
            fit_linear_lnr2([0.0, 2.0], [1.0, 1.0])


class TestFitLinearLw:
    def test_perfect_fit_is_global_minimum(self):
        fit = fit_linear_lw([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        assert fit.method == NUMERICAL
        assert abs(fit.slope - 2.0) <= 1e-5
        assert abs(fit.intercept) <= 1e-5
        assert fit.achieved_loss <= 1e-10

    def test_rescoring_reproduces_achieved_loss(self):
        rng = np.random.default_rng(54)
        x = rng.normal(0, 2, 80)
        y = 0.7 * x + rng.normal(0, 1, 80)
        fit = fit_linear_lw(x, y)
        scored = l_w(SeriesPair(fit.predict(x), y))
        assert abs(scored - fit.achieved_loss) <= 1e-14

    def test_beats_or_ties_ols_start(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            x = rng.normal(0, 1, 60)
            y = 2.0 * x + rng.normal(0, 2, 60)
            fit = fit_linear_lw(x, y)
            ols = fit_linear_ols(x, y)
            start_loss = l_w(SeriesPair(ols.predict(x), y))
            assert fit.achieved_loss <= start_loss + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(56)
        x = rng.normal(0, 1, 50)
        y = x + rng.normal(0, 1, 50)
        a = fit_linear_lw(x, y)
        b = fit_linear_lw(x, y)
        assert (a.slope, a.intercept, a.achieved_loss) == (b.slope, b.intercept, b.achieved_loss)

    def test_convergence_error_carries_best_iterate(self):
        rng = np.random.default_rng(57)
        x = rng.normal(0, 1, 40)
        y = x + rng.normal(0, 1, 40)
        with pytest.raises(ConvergenceError) as excinfo:
            fit_linear_lw(x, y, MinimizerConfig(max_iterations=1))
        assert excinfo.value.point is not None
        assert math.isfinite(excinfo.value.value)

    def test_descent_builds_no_series_pair(self, series_pair_lengths):
        rng = np.random.default_rng(58)
        x = rng.normal(0, 1, 50)
        fit_linear_lw(x, x + rng.normal(0, 1, 50))
        assert series_pair_lengths == []

    def test_constant_inputs_rejected(self):
        with pytest.raises(SingularDesignError):
            fit_linear_lw([1.0, 1.0], [0.0, 2.0])
        with pytest.raises(UndefinedValueError):
            fit_linear_lw([0.0, 2.0], [1.0, 1.0])


class TestEmpiricalConsistency:
    def test_upper_estimator_approaches_target_with_sample_size(self):
        # IID standard Gaussians: mean + sd estimates 0 + 1.
        deviations = []
        for stream, size in enumerate((100, 1000, 10000)):
            y = sample(Gaussian(0.0, 1.0), size, Rng(3, stream_id=stream))
            fit = fit_constant_lnr2(y)
            deviations.append(abs(fit.theta_plus - 1.0))
        assert deviations[0] > deviations[1] > deviations[2]
