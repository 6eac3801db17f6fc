"""Bucket model physics, CSV ingestion, and calibration behavior."""

import math
import struct

import numpy as np
import pytest

from agreeloss.estimators import MinimizerConfig
from agreeloss.exceptions import (
    ConvergenceError,
    CsvFormatError,
    InvalidInputError,
)
from agreeloss import hydro
from agreeloss.hydro import (
    LOSS_METRICS,
    BucketParams,
    BucketTrace,
    HydroSeries,
    calibrate,
    load_csv,
    run_bucket,
    run_calibration,
    write_csv,
)
from conftest import TRUTH_PARAMS, synthetic_forcing, synthetic_series


def flat_series(n=10, precip=0.0, pet=0.0, flow=0.5, start="2001-01-01"):
    first = np.datetime64(start)
    dates = np.arange(first, first + np.timedelta64(n, "D"))
    return HydroSeries(
        dates=dates,
        precip=np.full(n, precip),
        pet=np.full(n, pet),
        flow=np.full(n, flow),
    )


class TestBucketParams:
    def test_bounds_enforced(self):
        with pytest.raises(InvalidInputError):
            BucketParams(capacity=0.0, recession=0.5, split=0.5)
        with pytest.raises(InvalidInputError):
            BucketParams(capacity=10.0, recession=1.0, split=0.5)
        with pytest.raises(InvalidInputError):
            BucketParams(capacity=10.0, recession=0.5, split=1.5)

    def test_closed_split_bounds_allowed(self):
        BucketParams(capacity=10.0, recession=0.5, split=0.0)
        BucketParams(capacity=10.0, recession=0.5, split=1.0)


class TestHydroSeries:
    def test_rejects_date_gap(self):
        dates = np.array(["2001-01-01", "2001-01-02", "2001-01-04"], dtype="datetime64[D]")
        with pytest.raises(InvalidInputError):
            HydroSeries(dates=dates, precip=np.zeros(3), pet=np.zeros(3), flow=np.zeros(3))

    def test_rejects_negative_values(self):
        dates = np.array(["2001-01-01", "2001-01-02"], dtype="datetime64[D]")
        with pytest.raises(InvalidInputError):
            HydroSeries(dates=dates, precip=np.array([0.0, -1.0]), pet=np.zeros(2), flow=np.zeros(2))

    def test_rejects_length_mismatch(self):
        dates = np.array(["2001-01-01", "2001-01-02"], dtype="datetime64[D]")
        with pytest.raises(InvalidInputError):
            HydroSeries(dates=dates, precip=np.zeros(3), pet=np.zeros(2), flow=np.zeros(2))

    def test_index_and_span(self):
        series = flat_series(n=10)
        assert series.index_of("2001-01-03") == 2
        s = series.span_slice(("2001-01-03", "2001-01-05"))
        assert (s.start, s.stop) == (2, 5)
        with pytest.raises(InvalidInputError):
            series.index_of("2001-02-01")
        with pytest.raises(InvalidInputError):
            series.span_slice(("2001-01-05", "2001-01-03"))


class TestSimulateFlow:
    def test_no_water_in_none_out(self):
        series = flat_series(n=30, precip=0.0, pet=2.0)
        flow = run_bucket(TRUTH_PARAMS, series.precip, series.pet, 0.0).flow
        np.testing.assert_array_equal(flow, np.zeros(30))

    def test_full_bypass_reproduces_precipitation(self):
        n = 40
        rng = np.random.default_rng(8)
        precip = rng.exponential(5.0, n)
        first = np.datetime64("2001-01-01")
        series = HydroSeries(
            dates=np.arange(first, first + np.timedelta64(n, "D")),
            precip=precip,
            pet=rng.uniform(0, 4, n),
            flow=np.zeros(n),
        )
        params = BucketParams(capacity=80.0, recession=0.4, split=1.0)
        flow = run_bucket(params, series.precip, series.pet, 0.0).flow
        np.testing.assert_array_equal(flow, precip)

    def test_single_pulse_geometric_recession(self):
        n = 15
        precip = np.zeros(n)
        precip[0] = 12.0
        pet = np.zeros(n)
        params = BucketParams(capacity=1e9, recession=0.5, split=0.0)
        trace = run_bucket(params, precip, pet, 0.0)
        expected = 12.0 * 0.5 * (1.0 - 0.5) ** np.arange(n)
        np.testing.assert_allclose(trace.flow, expected, rtol=1e-12)

    def test_mass_balance_closes(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = 200
            precip = np.where(rng.random(n) < 0.5, rng.exponential(6.0, n), 0.0)
            pet = rng.uniform(0.5, 6.0, n)
            params = BucketParams(
                capacity=float(rng.uniform(5, 400)),
                recession=float(rng.uniform(0.01, 0.95)),
                split=float(rng.uniform(0.0, 1.0)),
            )
            s0 = float(rng.uniform(0, params.capacity))
            trace = run_bucket(params, precip, pet, s0)
            water_in = precip.sum()
            water_out = trace.flow.sum() + trace.total_evaporation + (trace.final_store - s0)
            assert abs(water_in - water_out) <= 1e-8 * max(1.0, water_in)
            # A run over the first k days ends on day k's store.
            for k in range(1, n + 1):
                assert run_bucket(params, precip[:k], pet[:k], s0).final_store >= 0.0

    def test_more_recession_never_reduces_total_flow(self):
        _, precip, pet, _ = synthetic_forcing(400, seed=9)
        totals = []
        for recession in np.linspace(0.02, 0.9, 12):
            params = BucketParams(capacity=120.0, recession=float(recession), split=0.2)
            totals.append(run_bucket(params, precip, pet, 60.0).flow.sum())
        assert all(b >= a - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_negative_initial_store_rejected(self):
        series = flat_series()
        with pytest.raises(InvalidInputError):
            run_bucket(TRUTH_PARAMS, series.precip, series.pet, initial_store=-1.0)


def indexed_min_bucket(params, precip, pet, initial_store):
    """The bucket recurrence in its indexed ``min()`` form, kept as the reference.

    Returns the daily flow, the evaporation summed day by day and the
    end-of-day store of every day.
    """
    n = precip.size
    flow = np.empty(n)
    store_out = np.empty(n)
    total_evap = 0.0
    capacity = params.capacity
    recession = params.recession
    split = params.split
    s = float(initial_store)
    for i in range(n):
        p = float(precip[i])
        direct = split * p
        s += (1.0 - split) * p
        demand = float(pet[i]) * min(1.0, s / capacity)
        evap = min(demand, s)
        s -= evap
        total_evap += evap
        spill = s - capacity if s > capacity else 0.0
        s -= spill
        baseflow = recession * s
        s -= baseflow
        flow[i] = direct + spill + baseflow
        store_out[i] = s
    return flow, total_evap, store_out


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def float_bits(value):
    assert type(value) is float
    return struct.pack("<d", value)


def assert_same_trace(trace, expected, initial_store):
    flow, total_evap, store = expected
    assert_same_bits(trace.flow, flow)
    assert float_bits(trace.total_evaporation) == float_bits(total_evap)
    final = float(store[-1]) if store.size else float(initial_store)
    assert float_bits(trace.final_store) == float_bits(final)


class TestBucketKernel:
    LENGTHS = (1, 60, 3653)

    @staticmethod
    def forcing(rng, n):
        precip = np.where(rng.random(n) < 0.4, rng.exponential(8.0, n), 0.0)
        return precip, rng.uniform(0.0, 8.0, n)

    def test_matches_indexed_min_recurrence_on_random_parameters(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            params = BucketParams(
                capacity=float(np.exp(rng.uniform(np.log(0.5), np.log(2000.0)))),
                recession=float(rng.uniform(1e-4, 1.0 - 1e-4)),
                split=float(rng.uniform(0.0, 1.0)),
            )
            s0 = float(rng.uniform(0.0, 1.5 * params.capacity))
            for n in self.LENGTHS:
                precip, pet = self.forcing(rng, n)
                expected = indexed_min_bucket(params, precip, pet, s0)
                assert_same_trace(run_bucket(params, precip, pet, s0), expected, s0)

    @pytest.mark.parametrize(
        "capacity, recession, split, s0, pet_mm",
        [
            (50.0, 0.1, 0.3, 400.0, 3.0),  # store starts far above capacity
            (80.0, 0.2, 0.0, 40.0, 3.0),  # nothing bypasses the store
            (80.0, 0.2, 1.0, 40.0, 3.0),  # everything bypasses the store
            (5.0, 0.05, 0.2, 1.0, 500.0),  # demand far above the store
        ],
    )
    def test_matches_indexed_min_recurrence_on_edges(self, capacity, recession, split, s0, pet_mm):
        params = BucketParams(capacity=capacity, recession=recession, split=split)
        rng = np.random.default_rng(21)
        for n in self.LENGTHS:
            precip, _ = self.forcing(rng, n)
            pet = np.full(n, pet_mm)
            expected = indexed_min_bucket(params, precip, pet, s0)
            assert_same_trace(run_bucket(params, precip, pet, s0), expected, s0)

    def test_matches_indexed_min_recurrence_on_zero_forcing(self):
        params = BucketParams(capacity=120.0, recession=0.3, split=0.4)
        for n in self.LENGTHS:
            zeros = np.zeros(n)
            for s0 in (0.0, 60.0, 500.0):
                expected = indexed_min_bucket(params, zeros, zeros, s0)
                assert_same_trace(run_bucket(params, zeros, zeros, s0), expected, s0)

    def test_prefix_run_equals_head_of_full_run(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            params = BucketParams(
                capacity=float(rng.uniform(20.0, 300.0)),
                recession=float(rng.uniform(0.01, 0.6)),
                split=float(rng.uniform(0.0, 1.0)),
            )
            precip, pet = self.forcing(rng, 120)
            s0 = params.capacity / 2.0
            full = run_bucket(params, precip, pet, s0)
            for k in range(precip.size + 1):
                head = run_bucket(params, precip[:k], pet[:k], s0)
                assert_same_bits(head.flow, full.flow[:k])
                assert_same_trace(head, indexed_min_bucket(params, precip[:k], pet[:k], s0), s0)

    @pytest.mark.parametrize("n_precip, n_pet", [(10, 9), (9, 10)])
    def test_unequal_forcing_lengths_rejected(self, n_precip, n_pet):
        with pytest.raises(InvalidInputError) as excinfo:
            run_bucket(TRUTH_PARAMS, np.ones(n_precip), np.ones(n_pet), 0.0)
        assert str(n_precip) in str(excinfo.value)
        assert str(n_pet) in str(excinfo.value)


class TestLoadCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_well_formed(self, tmp_path):
        path = self.write(
            tmp_path,
            "date,precip_mm,pet_mm,flow_mm\n"
            "2001-01-01,1.5,2.0,0.3\n"
            "2001-01-02,0.0,2.1,0.2\n"
            "2001-01-03,4.25,1.9,0.8\n",
        )
        series = load_csv(path)
        assert series.n == 3
        assert series.precip[2] == 4.25

    def test_date_gap_names_row(self, tmp_path):
        path = self.write(
            tmp_path,
            "date,precip_mm,pet_mm,flow_mm\n"
            "2001-01-01,1.0,2.0,0.3\n"
            "2001-01-03,1.0,2.0,0.3\n",
        )
        with pytest.raises(CsvFormatError, match="row 3"):
            load_csv(path)

    def test_negative_value_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "date,precip_mm,pet_mm,flow_mm\n2001-01-01,-1.0,2.0,0.3\n",
        )
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(path)

    def test_missing_value_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "date,precip_mm,pet_mm,flow_mm\n2001-01-01,1.0,,0.3\n",
        )
        with pytest.raises(CsvFormatError, match="pet_mm"):
            load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = self.write(tmp_path, "date,rain,pet_mm,flow_mm\n2001-01-01,1,2,3\n")
        with pytest.raises(CsvFormatError, match="row 1"):
            load_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "date,precip_mm,pet_mm,flow_mm\n2001-01-01,1.0,2.0\n",
        )
        with pytest.raises(CsvFormatError, match="row 2"):
            load_csv(path)

    def test_bad_date_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "date,precip_mm,pet_mm,flow_mm\n01/02/2001,1.0,2.0,0.3\n",
        )
        with pytest.raises(CsvFormatError, match="ISO date"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(CsvFormatError, match="row 1"):
            load_csv(path)

    def test_roundtrip(self, tmp_path):
        series = synthetic_series(30, seed=2, start="2003-05-01")
        path = tmp_path / "round.csv"
        write_csv(series, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.dates, series.dates)
        np.testing.assert_array_equal(loaded.flow, series.flow)


CAL_SPAN = ("2000-04-01", "2001-03-31")
VAL_SPAN = ("2001-04-01", "2002-01-29")


@pytest.fixture(scope="module")
def short_series():
    return synthetic_series(760, seed=11, start="2000-01-01")


@pytest.fixture(scope="module")
def short_noisy_series():
    return synthetic_series(760, noise=0.3, seed=12, start="2000-01-01")


class TestCalibrate:
    def test_noiseless_truth_recovered(self, short_series):
        row = calibrate(short_series, 90, CAL_SPAN, VAL_SPAN, "se")
        assert row.converged
        assert abs(row.params.capacity - TRUTH_PARAMS.capacity) <= 1e-3
        assert abs(row.params.recession - TRUTH_PARAMS.recession) <= 1e-3
        assert abs(row.params.split - TRUTH_PARAMS.split) <= 1e-3
        assert row.metrics["calibration"]["mse"] < 1e-10

    def test_deterministic(self, short_series):
        a = calibrate(short_series, 90, CAL_SPAN, VAL_SPAN, "lnr2")
        b = calibrate(short_series, 90, CAL_SPAN, VAL_SPAN, "lnr2")
        assert a == b

    def test_unknown_loss_rejected(self, short_series):
        with pytest.raises(InvalidInputError):
            calibrate(short_series, 90, CAL_SPAN, VAL_SPAN, "mae")

    def test_span_must_follow_warmup(self, short_series):
        with pytest.raises(InvalidInputError):
            calibrate(short_series, 200, CAL_SPAN, VAL_SPAN, "se")

    def test_overlapping_spans_rejected(self, short_series):
        with pytest.raises(InvalidInputError):
            calibrate(
                short_series, 90, ("2000-04-01", "2001-03-31"), ("2001-03-31", "2002-01-29"), "se"
            )

    def test_convergence_error_carries_best_iterate(self, short_series):
        with pytest.raises(ConvergenceError) as excinfo:
            calibrate(
                short_series,
                90,
                CAL_SPAN,
                VAL_SPAN,
                "se",
                MinimizerConfig(max_iterations=1),
            )
        assert excinfo.value.point is not None
        assert math.isfinite(excinfo.value.value)


    def test_descent_stops_at_last_calibration_day(self, short_noisy_series, monkeypatch):
        series = short_noisy_series
        cal = series.span_slice(CAL_SPAN)
        lengths = []
        kernel = hydro.run_bucket

        def recording(params, precip, pet, initial_store):
            lengths.append(precip.size)
            return kernel(params, precip, pet, initial_store)

        monkeypatch.setattr(hydro, "run_bucket", recording)
        calibrate(series, 90, CAL_SPAN, VAL_SPAN, "lnr2")
        assert cal.stop < series.n
        assert len(lengths) > 2
        assert set(lengths[:-1]) == {cal.stop}
        assert lengths[-1] == series.n

    @pytest.mark.parametrize("loss", ["se", "lnr2", "lw"])
    def test_descent_builds_no_series_pair(self, short_noisy_series, series_pair_lengths, loss):
        series = short_noisy_series
        calibrate(series, 90, CAL_SPAN, VAL_SPAN, loss)
        cal = series.span_slice(CAL_SPAN)
        val = series.span_slice(VAL_SPAN)
        # Only the two reported spans are scored through SeriesPair.
        assert series_pair_lengths == [cal.stop - cal.start, val.stop - val.start]

    def test_descent_on_whole_record_gives_same_row(self, short_noisy_series, monkeypatch):
        series = short_noisy_series
        row = calibrate(series, 90, CAL_SPAN, VAL_SPAN, "lw")
        kernel = hydro.run_bucket

        def whole_record(params, precip, pet, initial_store):
            trace = kernel(params, series.precip, series.pet, initial_store)
            # The descent reads only the flow.
            return BucketTrace(trace.flow[: precip.size], math.nan, math.nan)

        monkeypatch.setattr(hydro, "run_bucket", whole_record)
        assert calibrate(series, 90, CAL_SPAN, VAL_SPAN, "lw") == row


class TestRunCalibration:
    def test_diagonal_dominance_and_shape(self, short_noisy_series):
        report = run_calibration(short_noisy_series, 90, CAL_SPAN, VAL_SPAN)
        assert [r.loss_name for r in report.rows] == ["se", "lnr2", "lw"]
        for loss in ("se", "lnr2", "lw"):
            metric = LOSS_METRICS[loss]
            own = report.row(loss).metrics["calibration"][metric]
            assert all(own <= r.metrics["calibration"][metric] + 1e-15 for r in report.rows)
        for r in report.rows:
            cal, val = r.metrics["calibration"], r.metrics["validation"]
            assert 0.0 <= cal["lnr2"] <= 1.0 and 0.0 <= cal["lw"] <= 1.0
            assert 0.0 <= val["lnr2"] <= 1.0 and 0.0 <= val["lw"] <= 1.0

    def test_single_loss_report(self, short_series):
        report = run_calibration(short_series, 90, CAL_SPAN, VAL_SPAN, losses=("se",))
        assert len(report.rows) == 1
        assert report.rows[0].loss_name == "se"

    def test_to_dict_shape(self, short_series):
        report = run_calibration(short_series, 90, CAL_SPAN, VAL_SPAN, losses=("se",))
        payload = report.to_dict()
        assert set(payload) == {"metadata", "rows"}
        row = payload["rows"][0]
        assert set(row) == {"loss", "params", "calibration", "validation", "converged"}
        assert set(row["validation"]) == {"mse", "lnr2", "lw", "vbar_mean"}

    def test_empty_loss_list_rejected(self, short_series):
        with pytest.raises(InvalidInputError):
            run_calibration(short_series, 90, CAL_SPAN, VAL_SPAN, losses=())
