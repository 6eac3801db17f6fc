"""Shared fixtures: synthetic catchment forcing and truth-driven flow."""

import numpy as np
import pytest

from agreeloss.hydro import BucketParams, HydroSeries, run_bucket
from agreeloss.losses import SeriesPair

TRUTH_PARAMS = BucketParams(capacity=150.0, recession=0.12, split=0.25)


def synthetic_forcing(n_days: int, seed: int = 11, start: str = "1999-01-01"):
    """Seasonal PET and intermittent exponential rainfall."""
    rng = np.random.default_rng(seed)
    first = np.datetime64(start)
    dates = np.arange(first, first + np.timedelta64(n_days, "D"))
    day_of_year = np.arange(n_days) % 365
    pet = 3.0 + 2.0 * np.sin(2.0 * np.pi * (day_of_year - 120) / 365.0)
    wet = rng.random(n_days) < 0.4
    precip = np.where(wet, rng.exponential(8.0, n_days), 0.0)
    return dates, precip, pet, rng


def synthetic_series(
    n_days: int,
    noise: float = 0.0,
    seed: int = 11,
    start: str = "1999-01-01",
    params: BucketParams = TRUTH_PARAMS,
) -> HydroSeries:
    """Series whose flow was generated by the bucket model itself.

    With ``noise == 0`` the truth parameters reproduce the flow exactly
    (the simulation starts half full, matching the calibration
    convention).  Positive ``noise`` applies multiplicative lognormal
    perturbations, keeping flows non-negative.
    """
    dates, precip, pet, rng = synthetic_forcing(n_days, seed=seed, start=start)
    flow = run_bucket(params, precip, pet, params.capacity / 2.0).flow
    if noise > 0.0:
        flow = flow * np.exp(noise * rng.standard_normal(n_days))
    return HydroSeries(dates=dates, precip=precip, pet=pet, flow=flow)


def days_between(start: str, end_exclusive: str) -> int:
    return int((np.datetime64(end_exclusive) - np.datetime64(start)).astype(int))


@pytest.fixture(scope="session")
def ten_year_series() -> HydroSeries:
    """Noise-free 1999-2008 record generated by the truth parameters."""
    return synthetic_series(days_between("1999-01-01", "2009-01-01"))


@pytest.fixture(scope="session")
def ten_year_noisy_series() -> HydroSeries:
    return synthetic_series(days_between("1999-01-01", "2009-01-01"), noise=0.3)


@pytest.fixture
def series_pair_lengths(monkeypatch) -> list:
    """Length of every SeriesPair built while the test runs, in order."""
    lengths = []
    validate = SeriesPair.__post_init__

    def counting(pair):
        validate(pair)
        lengths.append(pair.n)

    monkeypatch.setattr(SeriesPair, "__post_init__", counting)
    return lengths
