"""Generator determinism, sampler statistics, and experiment patterns."""

import json
import math

import numpy as np
import pytest

from agreeloss.exceptions import DimensionMismatchError, InvalidInputError
from agreeloss.simulate import (
    ExperimentReport,
    Gamma,
    Gaussian,
    Lognormal,
    Rng,
    _safe_corr,
    mix64,
    run_climatology_experiment,
    run_linear_experiment,
    sample,
)

MASK = (1 << 64) - 1
STEP = 0x9E3779B97F4B7C15


def reference_mix64(value: int) -> int:
    """Pure-integer splitmix64 finalizer, independent of the numpy path."""
    v = value & MASK
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & MASK
    return v ^ (v >> 31)


def reference_stream(seed: int, stream_id: int, n: int) -> list[int]:
    base = reference_mix64(seed) ^ reference_mix64(stream_id ^ STEP)
    return [reference_mix64((base + k * STEP) & MASK) for k in range(1, n + 1)]


class TestRng:
    def test_matches_integer_reference(self):
        for seed, stream in ((0, 0), (42, 0), (42, 7), (2**64 - 1, 2**64 - 1)):
            got = Rng(seed, stream).raw(200).tolist()
            assert got == reference_stream(seed, stream, 200)

    def test_golden_values(self):
        assert Rng(42, 0).raw(5).tolist() == [
            10537197891814448989,
            7170689161402598346,
            17110308243380671885,
            23076398252591059,
            14097902942453437053,
        ]

    def test_mix64_matches_reference(self):
        for v in (0, 1, 42, 2**63, MASK):
            assert mix64(v) == reference_mix64(v)

    def test_draws_continue_across_calls(self):
        rng = Rng(9, 1)
        combined = rng.raw(13).tolist() + rng.raw(29).tolist()
        assert combined == reference_stream(9, 1, 42)

    def test_streams_differ(self):
        a = Rng(5, 0).raw(10).tolist()
        b = Rng(5, 1).raw(10).tolist()
        assert a != b

    def test_seed_validation(self):
        with pytest.raises(InvalidInputError):
            Rng(-1)
        with pytest.raises(InvalidInputError):
            Rng(2**64)
        with pytest.raises(InvalidInputError):
            Rng(1.5)  # type: ignore[arg-type]

    def test_uniforms_in_half_open_unit_interval(self):
        u = Rng(11, 0).uniforms(10_000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)

    def test_normals_consume_two_uniforms_each(self):
        u = Rng(13, 2).uniforms(6)
        expected = np.sqrt(-2.0 * np.log(u[0::2])) * np.cos(2.0 * math.pi * u[1::2])
        got = Rng(13, 2).normals(3)
        np.testing.assert_array_equal(got, expected)


class TestSample:
    def test_gaussian_mean_within_clt_bound(self):
        n = 100_000
        draws = sample(Gaussian(0.0, 1.0), n, Rng(7, 0))
        assert abs(draws.mean()) <= 3.3 / math.sqrt(n)

    def test_lognormal_support(self):
        draws = sample(Lognormal(0.0, 2.0), 20_000, Rng(7, 1))
        assert np.all(draws > 0.0)

    def test_gamma_mean_identity(self):
        # mean = scale * shape; standard error = scale * sqrt(shape / n)
        n = 50_000
        draws = sample(Gamma(scale=0.4, shape=1.8), n, Rng(7, 2))
        assert np.all(draws >= 0.0)
        se = 0.4 * math.sqrt(1.8 / n)
        assert abs(draws.mean() - 0.72) <= 3.0 * se

    def test_gamma_shape_below_one_boost_path(self):
        n = 50_000
        draws = sample(Gamma(scale=1.8, shape=0.4), n, Rng(7, 3))
        assert np.all(draws >= 0.0)
        se = 1.8 * math.sqrt(0.4 / n)
        assert abs(draws.mean() - 0.72) <= 3.0 * se

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            Gaussian(0.0, 0.0)
        with pytest.raises(InvalidInputError, match="gaussian mu must be finite"):
            Gaussian(float("nan"), 1.0)
        with pytest.raises(InvalidInputError, match="lognormal sigma must be finite"):
            Lognormal(0.0, float("inf"))
        with pytest.raises(InvalidInputError):
            Gamma(scale=-1.0, shape=2.0)
        with pytest.raises(InvalidInputError):
            Lognormal(0.0, -2.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("spec", [Gaussian(1e308, 1e308), Lognormal(0.0, 400.0)])
    def test_overflowing_draws_named(self, spec):
        with pytest.raises(InvalidInputError, match=f"draws from {type(spec).__name__}"):
            sample(spec, 100, Rng(1))

    def test_zero_count_rejected(self):
        with pytest.raises(InvalidInputError):
            sample(Gaussian(0.0, 1.0), 0, Rng(1))


def per_draw_gamma(rng: Rng, shape: float, scale: float, branches: set) -> float:
    """The draw-by-draw Marsaglia-Tsang path: one ``normals(1)`` or ``uniforms(1)`` per step."""
    boosted = shape < 1.0
    d = (shape + 1.0 if boosted else shape) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = float(rng.normals(1)[0])
        t = 1.0 + c * x
        if t <= 0.0:
            branches.add("nonpositive")
            continue
        v = t * t * t
        u = float(rng.uniforms(1)[0])
        x2 = x * x
        if u < 1.0 - 0.0331 * x2 * x2:
            branches.add("squeeze")
            break
        if math.log(u) < 0.5 * x2 + d * (1.0 - v + math.log(v)):
            branches.add("log")
            break
        branches.add("reject")
    if boosted:
        return scale * (d * v) * float(rng.uniforms(1)[0]) ** (1.0 / shape)
    return scale * (d * v)


class TestGammaSampler:
    SEEDS = (0, 3, 7, 11, 42, 1009, 2**63 + 5, 2**64 - 1)

    @pytest.mark.parametrize("shape", [0.05, 0.4, 0.7, 1.0, 2.0, 5.5, 80.0])
    def test_bit_identical_to_per_draw_path(self, shape, monkeypatch):
        raw = Rng.raw
        calls = []

        def counted(self, n):
            calls.append(n)
            return raw(self, n)

        monkeypatch.setattr(Rng, "raw", counted)
        branches = set()
        blocks = 0
        for seed in self.SEEDS:
            for n in (1, 2, 7, 600):
                calls.clear()
                want_rng = Rng(seed, 4)
                want = np.array([per_draw_gamma(want_rng, shape, 1.8, branches) for _ in range(n)])
                want_raw = sum(calls)
                calls.clear()
                got_rng = Rng(seed, 4)
                got = sample(Gamma(scale=1.8, shape=shape), n, got_rng)
                assert got.tobytes() == want.tobytes(), (seed, n)
                assert got_rng._count == want_rng._count
                assert sum(calls) == want_raw
                blocks = max(blocks, len(calls))
                assert got_rng.normals(5).tobytes() == want_rng.normals(5).tobytes()
        assert blocks >= 2  # some case carried a tail into a second block
        assert {"squeeze", "log", "reject"} <= branches
        if shape == 0.05:
            assert "nonpositive" in branches

    def test_numpy_kernels_same_bits_at_any_length(self):
        # The sampler evaluates Box-Muller on whole blocks; the draw-by-draw
        # definition evaluates it on length-1 arrays.  The identity needs
        # numpy's log, sqrt and cos to give the same bits on both.
        u = Rng(17, 0).uniforms(4096)
        for op, x in ((np.log, u), (np.sqrt, -2.0 * np.log(u)), (np.cos, 2.0 * math.pi * u)):
            whole = op(x)
            single = np.concatenate([op(x[i : i + 1]) for i in range(x.size)])
            assert whole.tobytes() == single.tobytes(), op.__name__


class TestExperimentReport:
    def test_missing_column_rejected(self):
        with pytest.raises(InvalidInputError):
            ExperimentReport(metadata={}, columns=("model", "mse"), models=({"model": "m"},))


class TestClimatologyExperiment:
    def test_bit_identical_reruns(self):
        a = run_climatology_experiment(1000, 500, Gaussian(0.0, 1.0), Rng(3))
        b = run_climatology_experiment(1000, 500, Gaussian(0.0, 1.0), Rng(3))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_report_shape(self):
        report = run_climatology_experiment(1000, 500, Gaussian(0.0, 1.0), Rng(3))
        assert len(report.models) == 3
        for row in report.models:
            assert 0.0 <= row["lnr2"] <= 1.0
            assert 0.0 <= row["lw"] <= 1.0
        assert report.metadata["n_train"] == 500
        assert report.metadata["seed"] == 3

    def test_ranking_reversal(self):
        report = run_climatology_experiment(1000, 500, Gaussian(0.0, 1.0), Rng(3))
        m1 = report.row("model_1")
        m2 = report.row("model_2")
        m3 = report.row("model_3")
        # Squared error prefers the mean constant ...
        assert m1["mse"] < m2["mse"] and m1["mse"] < m3["mse"]
        assert m1["one_minus_nse"] < m2["one_minus_nse"]
        # ... while both agreement losses prefer the shifted constants.
        assert m2["lnr2"] < m1["lnr2"] and m3["lnr2"] < m1["lnr2"]
        assert m2["lw"] < m1["lw"] and m3["lw"] < m1["lw"]

    def test_shifted_constants_near_analytic_anchors(self):
        report = run_climatology_experiment(1000, 500, Gaussian(0.0, 1.0), Rng(3))
        for name in ("model_2", "model_3"):
            row = report.row(name)
            # Norm-ratio minimum is exactly 1/2 in the training limit.
            assert abs(row["lnr2"] - 0.5) <= 0.05
            # Element-wise minimum for a Gaussian: 1 / (1 + sqrt(2/pi)).
            anchor = 1.0 / (1.0 + math.sqrt(2.0 / math.pi))
            assert abs(row["lw"] - anchor) <= 0.05

    def test_mse_and_one_minus_nse_rank_identically(self):
        report = run_climatology_experiment(1000, 500, Gaussian(0.0, 1.0), Rng(3))
        names = [r["model"] for r in report.models]
        by_mse = sorted(names, key=lambda n: report.row(n)["mse"])
        by_nse = sorted(names, key=lambda n: report.row(n)["one_minus_nse"])
        assert by_mse == by_nse

    def test_split_validation(self):
        with pytest.raises(InvalidInputError):
            run_climatology_experiment(10, 0, Gaussian(0.0, 1.0), Rng(1))
        with pytest.raises(InvalidInputError):
            run_climatology_experiment(10, 10, Gaussian(0.0, 1.0), Rng(1))

    def test_requires_gaussian_spec(self):
        with pytest.raises(InvalidInputError):
            run_climatology_experiment(10, 5, Gamma(1.0, 1.0), Rng(1))


@pytest.fixture(scope="module")
def blocks():
    return {a1: run_linear_experiment(a1, 4000, 2000, Rng(3)) for a1 in (0.6, 6.0, 20.0)}


class TestLinearExperiment:
    def test_bit_identical_reruns(self):
        a = run_linear_experiment(0.6, 800, 400, Rng(3))
        b = run_linear_experiment(0.6, 800, 400, Rng(3))
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_each_model_wins_its_own_loss(self, blocks):
        for report in blocks.values():
            m1, m2, m3 = (report.row(f"model_{i}") for i in (1, 2, 3))
            assert m1["mse"] <= m2["mse"] and m1["mse"] <= m3["mse"]
            assert m2["lnr2"] <= m1["lnr2"] and m2["lnr2"] <= m3["lnr2"]
            assert m3["lw"] <= m1["lw"] and m3["lw"] <= m2["lw"]

    def test_strong_signal_slopes_nearly_identical(self, blocks):
        # At the largest slope the two agreement-loss fits should agree
        # to within a few percent.
        report = blocks[20.0]
        s2 = report.row("model_2")["slope"]
        s3 = report.row("model_3")["slope"]
        assert abs(s2 - s3) / abs(s2) < 0.05

    def test_slopes_converge_as_signal_grows(self, blocks):
        def max_gap(report):
            slopes = [report.row(f"model_{i}")["slope"] for i in (1, 2, 3)]
            return max(
                abs(a - b) / max(abs(a), abs(b))
                for i, a in enumerate(slopes)
                for b in slopes[i + 1 :]
            )

        assert max_gap(blocks[20.0]) < max_gap(blocks[0.6])

    def test_identical_draws_shared_across_blocks(self, blocks):
        # Least squares removes the linear part, so its residual MSE
        # depends only on the shared predictor/noise realizations.
        mses = [b.row("model_1")["mse"] for b in blocks.values()]
        assert (max(mses) - min(mses)) <= 1e-9 * max(mses)

    def test_mean_identification_for_first_two_models(self, blocks):
        for report in blocks.values():
            sigma = report.metadata["test_std_y"]
            for name in ("model_1", "model_2"):
                assert abs(report.row(name)["vbar_mean"]) / sigma < 0.05

    def test_methods_tagged(self, blocks):
        report = blocks[6.0]
        assert report.row("model_1")["method"] == "closed_form"
        assert report.row("model_2")["method"] == "closed_form"
        assert report.row("model_3")["method"] == "numerical"

    def test_invalid_slope_rejected(self):
        with pytest.raises(InvalidInputError):
            run_linear_experiment(float("nan"), 100, 50, Rng(1))


class TestSafeCorr:
    def test_constant_vector_gives_none(self):
        assert _safe_corr([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            _safe_corr([1.0, 2.0, 3.0], [1.0, 2.0])
