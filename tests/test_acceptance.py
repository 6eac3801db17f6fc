"""Acceptance gate: the full criteria list at its stated tolerances.

Each test prints one ``ACCEPTANCE n (...): PASS`` line when its criterion
holds (run with ``pytest -s`` to see the lines); a failed criterion fails
its test.  Criteria with a stated runtime budget assert it.
"""

import math
import time

import numpy as np

from agreeloss.estimators import (
    fit_constant_lnr2,
    fit_constant_lw,
    fit_linear_lnr2,
    fit_linear_ols,
    lnr2_constant_derivative,
    lnr2_constant_profile,
    lnr2_constant_second_derivative,
    lw_constant_derivative,
    lw_constant_profile,
    lw_constant_second_derivative,
    minimize,
)
from agreeloss.hydro import LOSS_METRICS, calibrate, run_calibration
from agreeloss.losses import SeriesPair, l_kbb, l_nr2, l_nrp, l_w, mse, nse, skill_score
from agreeloss.simulate import Gaussian, Rng, run_climatology_experiment, run_linear_experiment
from agreeloss.vector_stats import mad, mean, pearson, std
from conftest import TRUTH_PARAMS

SEED = 3

NRP_EXPONENTS = (1.0, 1.5, 2.0, 3.0, math.inf)


def _report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _random_pair(rng):
    n = int(rng.integers(2, 201))
    y = rng.normal(rng.uniform(-5, 5), rng.uniform(0.2, 4.0), n)
    z = y + rng.normal(0.0, rng.uniform(0.05, 3.0), n)
    return SeriesPair(z, y)


def test_criterion_1_bounds_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(10_000):
        pair = _random_pair(rng)
        values = [l_w(pair), l_nr2(pair)]
        values.extend(l_nrp(pair, p) for p in NRP_EXPONENTS)
        low, high = min(values), max(values)
        assert 0.0 <= low and high <= 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"bounds suite took {elapsed:.2f}s"
    _report(1, "bounds of l_w, l_nr2, l_nrp on 10^4 random pairs")


def test_criterion_2_invariance_suite():
    rng = np.random.default_rng(102)
    for _ in range(1_000):
        pair = _random_pair(rng)
        shift = float(rng.uniform(-50.0, 50.0))
        scale = float(rng.uniform(0.05, 20.0) * rng.choice([-1.0, 1.0]))
        for loss in (l_w, l_nr2):
            base = loss(pair)
            shifted = loss(SeriesPair(pair.z + shift, pair.y + shift))
            scaled = loss(SeriesPair(scale * pair.z, scale * pair.y))
            assert abs(shifted - base) <= 1e-10 * (1.0 + abs(base))
            assert abs(scaled - base) <= 1e-10 * (1.0 + abs(base))
    _report(2, "translation and scale invariance at 1e-10")


def test_criterion_3_constant_fit_anchors():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    grid_offsets = np.linspace(-4.0, 4.0, 1201)
    for _ in range(100):
        y = rng.normal(rng.uniform(-5, 5), rng.uniform(0.2, 3.0), 50)
        mu, sd, md = mean(y), std(y), mad(y)

        nr_fit = fit_constant_lnr2(y)
        assert abs(nr_fit.theta_plus - (mu + sd)) <= 1e-9
        assert abs(nr_fit.theta_minus - (mu - sd)) <= 1e-9
        assert abs(nr_fit.min_loss - 0.5) <= 1e-9

        lw_fit = fit_constant_lw(y)
        assert abs(lw_fit.theta_plus - (mu + sd)) <= 1e-9
        assert abs(lw_fit.theta_minus - (mu - sd)) <= 1e-9
        assert abs(lw_fit.min_loss - sd / (sd + md)) <= 1e-9

        # Grid scan of the actual losses over constant predictions.
        thetas = mu + grid_offsets * sd
        for loss, fit in ((l_nr2, nr_fit), (l_w, lw_fit)):
            scanned = min(
                loss(SeriesPair(np.full(y.size, t), y)) for t in thetas
            )
            assert scanned >= fit.min_loss - 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"constant-fit anchors took {elapsed:.2f}s"
    _report(3, "constant-fit closed forms confirmed by profile scans")


def test_criterion_4_derivative_suite():
    rng = np.random.default_rng(104)
    pairs = (
        (lw_constant_profile, lw_constant_derivative, lw_constant_second_derivative),
        (lnr2_constant_profile, lnr2_constant_derivative, lnr2_constant_second_derivative),
    )
    for _ in range(100):
        y = rng.normal(rng.uniform(-3, 3), rng.uniform(0.3, 3.0), 60)
        mu, sd, md = mean(y), std(y), mad(y)
        theta = mu + float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)) * sd
        h = 1e-6 * (1.0 + abs(theta))
        for profile, first, second in pairs:
            fd_first = (profile(theta + h, y) - profile(theta - h, y)) / (2.0 * h)
            analytic_first = first(theta, y)
            assert abs(analytic_first - fd_first) <= 1e-5 * (1.0 + abs(analytic_first))
            fd_second = (first(theta + h, y) - first(theta - h, y)) / (2.0 * h)
            analytic_second = second(theta, y)
            assert abs(analytic_second - fd_second) <= 1e-5 * (1.0 + abs(analytic_second))
        # One-sided derivative limits at the kink.
        eps = 1e-9 * (1.0 + sd)
        lw_limit = 2.0 * md / sd**2
        assert abs(lw_constant_derivative(mu + eps, y) + lw_limit) <= 1e-6 * (1.0 + lw_limit)
        assert abs(lw_constant_derivative(mu - eps, y) - lw_limit) <= 1e-6 * (1.0 + lw_limit)
        nr_limit = 2.0 / sd
        assert abs(lnr2_constant_derivative(mu + eps, y) + nr_limit) <= 1e-6 * (1.0 + nr_limit)
        assert abs(lnr2_constant_derivative(mu - eps, y) - nr_limit) <= 1e-6 * (1.0 + nr_limit)
    _report(4, "analytic derivatives match finite differences and kink limits")


def test_criterion_5_linear_closed_form():
    rng = np.random.default_rng(105)
    checked = 0
    while checked < 100:
        n = 50
        x = rng.normal(0.0, 2.0, n)
        slope = float(rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0]))
        y = slope * x + rng.normal(0.0, rng.uniform(0.5, 6.0), n)
        rho = pearson(x, y)
        if abs(rho) <= 0.05:
            continue
        checked += 1
        fit = fit_linear_lnr2(x, y)
        assert abs(fit.achieved_loss - (1.0 - abs(rho)) / 2.0) <= 1e-10
        rescored = l_nr2(SeriesPair(fit.predict(x), y))
        assert abs(rescored - fit.achieved_loss) <= 1e-10
        # The closed form must beat or tie a simplex search from least squares.
        ols = fit_linear_ols(x, y)
        objective = lambda t: l_nr2(SeriesPair(t[0] * x + t[1], y))
        numeric = minimize(objective, [(ols.slope, ols.intercept)])
        assert fit.achieved_loss <= numeric.value + 1e-8
    _report(5, "norm-ratio linear closed form is optimal")


def test_criterion_6_climatology_reproduction():
    start = time.perf_counter()
    report = run_climatology_experiment(1000, 500, Gaussian(0.0, 1.0), Rng(SEED))
    elapsed = time.perf_counter() - start
    m1, m2, m3 = (report.row(f"model_{i}") for i in (1, 2, 3))
    # Squared error ranks the mean constant first.
    assert m1["mse"] < m2["mse"] and m1["mse"] < m3["mse"]
    # Both agreement losses reverse the ranking.
    assert m2["lnr2"] < m1["lnr2"] and m3["lnr2"] < m1["lnr2"]
    assert m2["lw"] < m1["lw"] and m3["lw"] < m1["lw"]
    for row in (m2, m3):
        assert 0.45 <= row["lnr2"] <= 0.55
        assert 0.50 <= row["lw"] <= 0.62
    assert elapsed < 1.0, f"climatology experiment took {elapsed:.2f}s"
    _report(6, "climatology ranking reversal with analytic anchors")


def test_criterion_7_linear_reproduction():
    start = time.perf_counter()
    reports = {a1: run_linear_experiment(a1, 4000, 2000, Rng(SEED)) for a1 in (0.6, 6.0, 20.0)}
    elapsed = time.perf_counter() - start
    gaps = {}
    for a1, report in reports.items():
        m1, m2, m3 = (report.row(f"model_{i}") for i in (1, 2, 3))
        assert m1["mse"] <= m2["mse"] and m1["mse"] <= m3["mse"]
        assert m2["lnr2"] <= m1["lnr2"] and m2["lnr2"] <= m3["lnr2"]
        assert m3["lw"] <= m1["lw"] and m3["lw"] <= m2["lw"]
        slopes = [m1["slope"], m2["slope"], m3["slope"]]
        gaps[a1] = max(
            abs(a - b) / max(abs(a), abs(b))
            for i, a in enumerate(slopes)
            for b in slopes[i + 1 :]
        )
        sigma = report.metadata["test_std_y"]
        for row in (m1, m2):
            assert abs(row["vbar_mean"]) / sigma < 0.05
    assert gaps[20.0] < gaps[0.6]
    assert elapsed < 5.0, f"linear experiment took {elapsed:.2f}s"
    _report(7, "linear-model own-loss wins and slope convergence")


def test_criterion_8_hydro_surrogate(ten_year_series, ten_year_noisy_series):
    start = time.perf_counter()
    spans = (("2000-01-01", "2004-12-31"), ("2005-01-01", "2008-12-31"))
    row = calibrate(ten_year_series, 365, spans[0], spans[1], "se")
    assert abs(row.params.capacity - TRUTH_PARAMS.capacity) <= 1e-3
    assert abs(row.params.recession - TRUTH_PARAMS.recession) <= 1e-3
    assert abs(row.params.split - TRUTH_PARAMS.split) <= 1e-3
    assert row.metrics["calibration"]["mse"] < 1e-10

    report = run_calibration(ten_year_noisy_series, 365, spans[0], spans[1])
    for loss in ("se", "lnr2", "lw"):
        metric = LOSS_METRICS[loss]
        own = report.row(loss).metrics["calibration"][metric]
        assert all(own <= other.metrics["calibration"][metric] + 1e-15 for other in report.rows)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"hydro criterion took {elapsed:.2f}s"
    _report(8, "bucket-model recovery and diagonal dominance")


def test_criterion_9_cross_operation_identities():
    rng = np.random.default_rng(109)
    for _ in range(1_000):
        pair = _random_pair(rng)
        assert abs(l_kbb(pair, 2) - l_w(pair)) <= 1e-12
        assert abs(l_nrp(pair, 2) - l_nr2(pair)) <= 1e-12
        climatology = SeriesPair(np.full(pair.n, pair.y.mean()), pair.y)
        assert abs(skill_score(mse(pair), mse(climatology)) - nse(pair)) <= 1e-12
    _report(9, "p=2 reductions and the skill-score/NSE identity")
