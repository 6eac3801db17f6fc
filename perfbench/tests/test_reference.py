"""The reference against the README's specification and the paper's identities."""

import math

import numpy as np
import pytest

import reference as ref

# README: first five raw draws for seed=42, stream_id=0.
README_RAW_SEED_42 = [
    10537197891814448989,
    7170689161402598346,
    17110308243380671885,
    23076398252591059,
    14097902942453437053,
]


def _pair(n=500, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.gamma(0.7, 6.0, n)
    return y * np.exp(0.3 * rng.standard_normal(n)) + 0.1, y


def test_raw_draws_match_the_readme_exactly():
    s = ref.Stream(42, 0)
    assert [s.raw() for _ in range(5)] == README_RAW_SEED_42


def test_uniforms_lie_in_the_half_open_unit_interval():
    s = ref.Stream(7)
    u = [s.uniform() for _ in range(10_000)]
    assert 0.0 < min(u) and max(u) <= 1.0


def test_gamma_and_lognormal_moments():
    x, eps = ref.linear_draws(5, 20_000)
    # Gamma(scale 1.8, shape 0.4) has mean 0.72; the log of Lognormal(0, 2) has sd 2.
    assert abs(np.mean(x) - 0.72) < 0.03
    assert abs(np.std(np.log(eps)) - 2.0) < 0.05
    assert np.all(x > 0.0)


def test_p2_reductions():
    z, y = _pair()
    assert ref.close(ref.l_kbb(z, y, 2.0), ref.l_w(z, y), rel=1e-12)
    assert ref.close(ref.l_nrp(z, y, 2.0), ref.l_nr2(z, y), rel=1e-12)


@pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
def test_lp_mean_zeroes_the_derivative(p):
    _, y = _pair()
    m = ref.lp_mean(y, p)
    objective = lambda t: float(np.sum(np.abs(y - t) ** p))  # noqa: E731
    h = 1e-6 * max(1.0, abs(m))
    assert objective(m) <= min(objective(m - h), objective(m + h))


def test_lp_mean_special_cases():
    y = [3.0, 1.0, 2.0, 10.0]
    assert ref.lp_mean(y, 1.0) == 2.5
    assert ref.lp_mean(y, 2.0) == 4.0


def test_agreement_losses_are_bounded_and_zero_on_a_perfect_fit():
    z, y = _pair()
    for value in (ref.l_w(z, y), ref.l_nr2(z, y), ref.l_kbb(z, y, 3.0), ref.l_nrp(z, y, 1.5),
                  ref.l_lmc(z, y, ref.median(y))):
        assert 0.0 < value < 1.0
    assert ref.l_w(y, y) == 0.0 and ref.l_nr2(y, y) == 0.0


def test_constant_fit_minima():
    _, y = _pair()
    mu, sd, mad = ref.moments(y)
    for theta in (mu - sd, mu + sd):
        z = np.full(y.size, theta)
        assert ref.close(ref.l_w(z, y), sd / (sd + mad))
        assert ref.close(ref.l_nr2(z, y), 0.5)


def test_norm_ratio_linear_fit_reaches_its_closed_form_minimum():
    rng = np.random.default_rng(3)
    x = rng.gamma(0.4, 1.8, 400)
    y = 2.1 + 6.0 * x + rng.lognormal(0.0, 2.0, 400)
    slope, intercept, minimum = ref.nr2_linear(x, y)
    assert ref.close(ref.l_nr2(slope * x + intercept, y), minimum)
    assert ref.close(minimum, (1.0 - abs(ref.correlation(x, y))) / 2.0)


def test_bucket_limits():
    rain = [0.0, 10.0, 0.0, 5.0]
    # All rain bypasses the store.
    assert ref.bucket_flow(100.0, 0.2, 1.0, rain, [1.0] * 4, 0.0) == rain
    # No rain, no evaporation: the store drains geometrically.
    flow = ref.bucket_flow(100.0, 0.5, 0.0, [0.0] * 3, [0.0] * 3, 8.0)
    assert flow == [4.0, 2.0, 1.0]


def test_reference_agrees_with_the_program():
    simulate = pytest.importorskip("agreeloss.simulate")
    hydro = pytest.importorskip("agreeloss.hydro")
    for seed in (3, 42, 7):
        s = ref.Stream(seed)
        assert [s.raw() for _ in range(100)] == [int(v) for v in simulate.Rng(seed).raw(100)]
        x, eps = ref.linear_draws(seed, 300)
        rng = simulate.Rng(seed)
        px = simulate.sample(simulate.LINEAR_PREDICTOR, 300, rng)
        peps = simulate.sample(simulate.LINEAR_NOISE, 300, rng)
        assert all(ref.close(a, b, rel=1e-14) for a, b in zip(x, px))
        assert all(ref.close(a, b, rel=1e-14) for a, b in zip(eps, peps))
    rng = np.random.default_rng(1)
    precip = np.where(rng.random(400) < 0.4, rng.exponential(8.0, 400), 0.0)
    pet = np.full(400, 3.0)
    params = hydro.BucketParams(capacity=120.0, recession=0.1, split=0.3)
    program = hydro.run_bucket(params, precip, pet, 60.0).flow
    mine = ref.bucket_flow(120.0, 0.1, 0.3, precip.tolist(), pet.tolist(), 60.0)
    assert all(math.isclose(a, b, rel_tol=1e-14, abs_tol=1e-14) for a, b in zip(program, mine))
