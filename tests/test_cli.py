"""End-to-end command-line behavior: outputs, formats, exit codes."""

import json
import math

import numpy as np
import pytest

from agreeloss.cli import (
    MAX_ITERATIONS,
    MAX_N_TOTAL,
    MAX_RESTARTS,
    MAX_SLOPES,
    MAX_STEPS,
    main,
)
from agreeloss.hydro import write_csv
from conftest import synthetic_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pairs(tmp_path, z, y, name="pairs.csv"):
    path = tmp_path / name
    lines = ["z,y"] + [f"{a},{b}" for a, b in zip(z, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_series(tmp_path, y, name="series.csv"):
    path = tmp_path / name
    path.write_text("\n".join(["y"] + [str(v) for v in y]) + "\n", encoding="utf-8")
    return str(path)


def write_xy(tmp_path, x, y, name="xy.csv"):
    path = tmp_path / name
    lines = ["x,y"] + [f"{a},{b}" for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def result_of(out: str) -> dict:
    doc = json.loads(out)
    assert doc["tool"] == "agreeloss"
    assert "version" in doc and "options" in doc and "inputs" in doc
    return doc["result"]


class TestMetrics:
    def test_hand_value_json(self, tmp_path, capsys):
        path = write_pairs(tmp_path, [0.0, 1.0], [0.0, 2.0])
        code, out, _ = run_cli(
            capsys, "metrics", "--input", path, "--metrics", "lw,lnr2,mse", "--format", "json"
        )
        assert code == 0
        metrics = {m["name"]: m["value"] for m in result_of(out)["metrics"]}
        assert metrics["lw"] == 0.2
        assert math.isclose(metrics["lnr2"], 1.0 / (1.0 + math.sqrt(2.0)) ** 2, rel_tol=1e-12)
        assert metrics["mse"] == 0.5

    def test_perfect_prediction_zeros(self, tmp_path, capsys):
        path = write_pairs(tmp_path, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        code, out, _ = run_cli(
            capsys, "metrics", "--input", path, "--metrics", "lw,lnr2", "--format", "json"
        )
        assert code == 0
        metrics = {m["name"]: m["value"] for m in result_of(out)["metrics"]}
        assert metrics["lw"] == 0.0 and metrics["lnr2"] == 0.0

    def test_parametrized_metrics(self, tmp_path, capsys):
        path = write_pairs(tmp_path, [0.0, 1.0], [0.0, 2.0])
        code, out, _ = run_cli(
            capsys,
            "metrics",
            "--input",
            path,
            "--metrics",
            "kbb:p=2,nrp:p=1,lmc:f=mean,vbar_median",
            "--format",
            "json",
        )
        assert code == 0
        metrics = {m["name"]: m["value"] for m in result_of(out)["metrics"]}
        assert metrics["kbb:p=2"] == 0.2
        assert math.isclose(metrics["nrp:p=1"], 1.0 / 3.0, rel_tol=1e-12)

    def test_undefined_metric_exit_code(self, tmp_path, capsys):
        path = write_pairs(tmp_path, [1.0, 2.0], [3.0, 3.0])
        code, out, _ = run_cli(
            capsys, "metrics", "--input", path, "--metrics", "nse,mse", "--format", "json"
        )
        assert code == 2
        metrics = {m["name"]: m["value"] for m in result_of(out)["metrics"]}
        assert metrics["nse"] is None
        assert metrics["mse"] is not None

    def test_undefined_cell_rendered_in_csv(self, tmp_path, capsys):
        path = write_pairs(tmp_path, [1.0, 2.0], [3.0, 3.0])
        code, out, _ = run_cli(
            capsys, "metrics", "--input", path, "--metrics", "nse", "--format", "csv"
        )
        assert code == 2
        assert "undefined" in out

    def test_malformed_csv_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("z,y\n1.0,oops\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "metrics", "--input", str(path), "--metrics", "mse")
        assert code == 1
        assert "row 2" in err

    def test_non_finite_cell_names_row(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("z,y\n1,2\nnan,3\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "metrics", "--input", str(path), "--metrics", "mse")
        assert code == 1
        assert out == ""
        assert "row 3" in err

    @pytest.mark.parametrize("metrics", ["mse", "mse,lnr2"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_metric_named(self, tmp_path, capsys, metrics):
        path = write_pairs(tmp_path, [1e200, -1e200], [-1e200, 1e200])
        code, out, err = run_cli(
            capsys, "metrics", "--input", path, "--metrics", metrics, "--format", "json"
        )
        assert code == 1
        assert out == ""
        assert "metric mse is not finite" in err
        assert "out of [0, 1]" not in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_denominator_named(self, tmp_path, capsys):
        # Each sum is finite, but (||z - mu|| + ||mu - y||)**2 overflows.
        path = write_pairs(tmp_path, [9e153, -8.9e153], [9e153, -9e153])
        code, out, err = run_cli(
            capsys, "metrics", "--input", path, "--metrics", "lnr2", "--format", "json"
        )
        assert code == 1
        assert out == ""
        assert err == "agreeloss: error: metric lnr2 is not finite: nan\n"

    def test_unknown_metric_exit_one(self, tmp_path, capsys):
        path = write_pairs(tmp_path, [1.0], [2.0])
        code, _, err = run_cli(capsys, "metrics", "--input", path, "--metrics", "rmse")
        assert code == 1
        assert "unknown metric" in err

    def test_as_index_flips_orientation(self, tmp_path, capsys):
        path = write_pairs(tmp_path, [0.0, 1.0], [0.0, 2.0])
        code, out, _ = run_cli(
            capsys,
            "metrics",
            "--input",
            path,
            "--metrics",
            "lw,mse",
            "--as-index",
            "--format",
            "json",
        )
        assert code == 0
        by_name = {m["name"]: m for m in result_of(out)["metrics"]}
        assert math.isclose(by_name["lw"]["value"], 0.8, rel_tol=1e-12)
        assert by_name["lw"]["orientation"] == "positively-oriented"
        assert by_name["mse"]["value"] == 0.5

    def test_mse_and_one_minus_nse_rank_models_identically(self, tmp_path, capsys):
        rng = np.random.default_rng(60)
        train = rng.normal(0, 1, 300)
        test = rng.normal(0, 1, 300)
        mu, sd = train.mean(), train.std()
        scores = {}
        for name, const in (("m1", mu), ("m2", mu - sd), ("m3", mu + sd)):
            path = write_pairs(tmp_path, np.full(300, const), test, name=f"{name}.csv")
            code, out, _ = run_cli(
                capsys,
                "metrics",
                "--input",
                path,
                "--metrics",
                "mse,one_minus_nse",
                "--format",
                "json",
            )
            assert code == 0
            scores[name] = {m["name"]: m["value"] for m in result_of(out)["metrics"]}
        by_mse = sorted(scores, key=lambda k: scores[k]["mse"])
        by_nse = sorted(scores, key=lambda k: scores[k]["one_minus_nse"])
        assert by_mse == by_nse


class TestFitConstant:
    def test_lw_fit(self, tmp_path, capsys):
        path = write_series(tmp_path, [0.0, 2.0])
        code, out, _ = run_cli(
            capsys, "fit-constant", "--loss", "lw", "--input", path, "--format", "json"
        )
        assert code == 0
        result = result_of(out)
        assert result["theta_minus"] == 0.0 and result["theta_plus"] == 2.0
        assert result["min_loss"] == 0.5

    def test_constant_series_exit_two(self, tmp_path, capsys):
        path = write_series(tmp_path, [3.0, 3.0, 3.0])
        code, _, err = run_cli(capsys, "fit-constant", "--loss", "lnr2", "--input", path)
        assert code == 2
        assert "non-constant" in err

    @pytest.mark.parametrize("loss", ["lw", "lnr2"])
    @pytest.mark.parametrize(
        "y, code, err",
        [
            ([1e200, -1e200, 0.0], 1, "agreeloss: error: moments of the observations overflow: "
             "mean 0.0, variance inf, mad 6.666666666666667e+199\n"),
            ([1e-320, 0.0, 0.0], 2,
             "agreeloss: undefined: the variance of the observations underflows to zero\n"),
        ],
        ids=["overflow", "underflow"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_moments_out_of_range_named(self, tmp_path, capsys, loss, y, code, err):
        path = write_series(tmp_path, y)
        got = run_cli(capsys, "fit-constant", "--loss", loss, "--input", path, "--format", "json")
        assert got == (code, "", err)


class TestFitLinear:
    def test_ols_perfect_line(self, tmp_path, capsys):
        path = write_xy(tmp_path, [1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        code, out, _ = run_cli(
            capsys, "fit-linear", "--loss", "se", "--train", path, "--format", "json"
        )
        assert code == 0
        result = result_of(out)
        assert math.isclose(result["slope"], 2.0, rel_tol=1e-12)
        assert result["method"] == "closed_form"

    def test_lnr2_half_correlation(self, tmp_path, capsys):
        path = write_xy(tmp_path, [1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
        code, out, _ = run_cli(
            capsys, "fit-linear", "--loss", "lnr2", "--train", path, "--format", "json"
        )
        assert code == 0
        result = result_of(out)
        assert math.isclose(result["slope"], 1.0, rel_tol=1e-12)
        assert math.isclose(result["achieved_loss"], 0.25, rel_tol=1e-10)

    def test_lw_with_test_split(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        x = rng.normal(0, 1, 60)
        y = 1.2 * x + rng.normal(0, 0.5, 60)
        train = write_xy(tmp_path, x[:40], y[:40], name="train.csv")
        test = write_xy(tmp_path, x[40:], y[40:], name="test.csv")
        code, out, _ = run_cli(
            capsys,
            "fit-linear",
            "--loss",
            "lw",
            "--train",
            train,
            "--test",
            test,
            "--format",
            "json",
        )
        assert code == 0
        result = result_of(out)
        assert result["method"] == "numerical"
        assert set(result["test"]) == {"mse", "lnr2", "lw", "vbar_mean", "n"}
        assert 0.0 <= result["test"]["lw"] <= 1.0

    @pytest.mark.parametrize("loss", ["lnr2", "lw"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_correlation_named(self, tmp_path, capsys, loss):
        # Perfectly correlated, but the squared deviations of y overflow.
        path = write_xy(tmp_path, [0.0, 1.0, 2.0], [0.0, 1e200, 2e200])
        code, out, err = run_cli(
            capsys, "fit-linear", "--loss", loss, "--train", path, "--format", "json"
        )
        assert code == 1
        assert out == ""
        assert err == "agreeloss: error: correlation overflows: a centered norm is not finite\n"

    ORDINARY = ([0.0, 1.0, 2.0, 3.0], [0.1, 1.2, 1.9, 3.2])
    LINE_1E200 = ([0.0, 1.0, 2.0], [0.0, 1e200, 2e200])
    EDGE_CASES = [
        # (id, losses, train (x, y), test (x, y) or None, exit code, stderr)
        ("overflowing-x", ("se", "lnr2", "lw"), ([0.0, 1e200, 2e200], [0.0, 1.0, 2.0]), None,
         1, "the predictor's centred sum of squares overflows"),
        ("underflowing-x", ("se", "lnr2", "lw"), ([0.0, 1e-200, 2e-200], [0.0, 1.0, 2.0]), None,
         2, "the predictor's centred sum of squares underflows"),
        ("overflowing-mse", ("se",), ([0.0, 1.0, 2.0], [0.0, 1e200, -1e200]), None,
         1, "least squares overflows: the training MSE is inf"),
        ("1e200-line", ("se",), LINE_1E200, None, 0, ""),
        ("overflowing-test-score", ("se",), ORDINARY, ([0.0, 1.0, 2.0], [1e200, -1e200, 3.0]),
         1, "metric mse is not finite: inf"),
        ("overflowing-predictions", ("se",), LINE_1E200, ([1e200, 1.0], [0.0, 1.0]),
         1, "linear fit predictions are not finite"),
    ]
    EDGE_PARAMS = [
        pytest.param(loss, train, test, code, message, id=f"{name}-{loss}")
        for name, losses, train, test, code, message in EDGE_CASES
        for loss in losses
    ]

    @pytest.mark.parametrize("loss,train,test,code,message", EDGE_PARAMS)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_and_underflow_named(self, tmp_path, capsys, loss, train, test, code, message):
        argv = ["fit-linear", "--loss", loss, "--train", write_xy(tmp_path, *train)]
        if test is not None:
            argv += ["--test", write_xy(tmp_path, *test, name="test.csv")]
        got, out, err = run_cli(capsys, *argv, "--format", "json")
        assert got == code
        if code == 0:
            assert err == "" and result_of(out)["slope"] == 1e200
        else:
            assert out == ""
            assert err.count("\n") == 1 and err.startswith("agreeloss: ")
            assert message in err

    def test_degenerate_fit_warns_on_one_line(self, tmp_path, capsys):
        path = write_xy(tmp_path, [1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
        code, out, err = run_cli(
            capsys, "fit-linear", "--loss", "lnr2", "--train", path, "--format", "json"
        )
        assert code == 0
        assert result_of(out)["degenerate"] is True
        assert err == (
            "agreeloss: warning: zero correlation: slope sign is undefined, "
            "returning the flat fit\n"
        )

    def test_constant_predictor_exit_two(self, tmp_path, capsys):
        path = write_xy(tmp_path, [2.0, 2.0], [1.0, 3.0])
        code, _, _ = run_cli(capsys, "fit-linear", "--loss", "se", "--train", path)
        assert code == 2


class TestProfile:
    def test_minimum_rows_annotated(self, tmp_path, capsys):
        path = write_series(tmp_path, [0.0, 2.0])
        code, out, _ = run_cli(
            capsys,
            "profile",
            "--loss",
            "lnr2",
            "--input",
            path,
            "--min",
            "-2.0",
            "--max",
            "4.0",
            "--steps",
            "7",
            "--format",
            "json",
        )
        assert code == 0
        result = result_of(out)
        annotated = [r for r in result["rows"] if r["annotation"] == "minimum"]
        assert sorted(r["theta"] for r in annotated) == [0.0, 2.0]
        assert all(r["loss"] == 0.5 for r in annotated)
        # Grid center hits the observation mean, where the profile peaks at 1.
        center_rows = [r for r in result["rows"] if r["theta"] == 1.0]
        assert center_rows and center_rows[0]["loss"] == 1.0

    def test_lw_profile_minimum_value(self, tmp_path, capsys):
        path = write_series(tmp_path, [0.0, 2.0])
        code, out, _ = run_cli(
            capsys,
            "profile", "--loss", "lw", "--input", path,
            "--min", "-1", "--max", "3", "--steps", "5",
            "--format", "json",
        )
        assert code == 0
        assert result_of(out)["min_loss"] == 0.5

    def test_too_few_steps_exit_one(self, tmp_path, capsys):
        path = write_series(tmp_path, [0.0, 2.0])
        code, _, _ = run_cli(
            capsys, "profile", "--loss", "lw", "--input", path,
            "--min", "0", "--max", "1", "--steps", "1",
        )
        assert code == 1

    def test_too_many_steps_exit_one(self, tmp_path, capsys):
        path = write_series(tmp_path, [0.0, 2.0])
        code, out, err = run_cli(
            capsys, "profile", "--loss", "lw", "--input", path,
            "--min", "0", "--max", "1", "--steps", str(MAX_STEPS + 1),
        )
        assert code == 1
        assert out == ""
        assert "--steps" in err

    def test_constant_series_exit_two(self, tmp_path, capsys):
        path = write_series(tmp_path, [1.0, 1.0])
        code, _, _ = run_cli(
            capsys, "profile", "--loss", "lw", "--input", path,
            "--min", "0", "--max", "1", "--steps", "3",
        )
        assert code == 2

    @pytest.mark.parametrize("loss", ["lw", "lnr2"])
    @pytest.mark.parametrize(
        "low, high, message",
        [
            ("-inf", "0", "--min -inf and --max 0.0 must span a finite range"),
            ("0", "inf", "--min 0.0 and --max inf must span a finite range"),
            ("nan", "0", "--min nan and --max 0.0 must span a finite range"),
            ("-1e308", "1e308", "--min -1e+308 and --max 1e+308 must span a finite range"),
            # (theta - mean)^2 overflows.
            ("-1e200", "1e200", "the {loss} profile is not finite at theta = -1e+200"),
            # Only the profile's denominator overflows.
            ("0", "1.347e154", "the {loss} profile is not finite at theta = 1.347e+154"),
        ],
        ids=["min-inf", "max-inf", "min-nan", "step-overflow", "square-overflow", "den-overflow"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_grid_named(self, tmp_path, capsys, loss, low, high, message):
        path = write_series(tmp_path, [0.0, 1e152, 2e152])
        got = run_cli(
            capsys, "profile", "--loss", loss, "--input", path,
            f"--min={low}", f"--max={high}", "--steps", "2", "--format", "json",
        )
        assert got == (1, "", f"agreeloss: error: {message.format(loss=loss)}\n")


class TestExperiment:
    def test_climatology_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "experiment", "climatology", "--seed", "42", "--format", "json"
        )
        assert code == 0
        result = result_of(out)
        assert len(result["models"]) == 3
        for row in result["models"]:
            assert 0.0 <= row["lnr2"] <= 1.0 and 0.0 <= row["lw"] <= 1.0
        assert result["metadata"]["seed"] == 42

    def test_missing_seed_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "climatology")
        assert code == 1
        assert "--seed" in err

    def test_too_large_n_total_exit_one(self, capsys):
        code, out, err = run_cli(
            capsys, "experiment", "linear", "--seed", "1", "--n-total", str(MAX_N_TOTAL + 1)
        )
        assert code == 1
        assert out == ""
        assert "--n-total" in err

    def test_too_many_slopes_exit_one(self, capsys):
        slopes = ",".join(["1.0"] * (MAX_SLOPES + 1))
        code, out, err = run_cli(capsys, "experiment", "linear", "--seed", "1", "--a1", slopes)
        assert code == 1
        assert out == ""
        assert "--a1" in err

    def test_empty_slope_list_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "experiment", "linear", "--seed", "1", "--a1", ",")
        assert code == 1
        assert out == ""
        assert "--a1: must list at least one value" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "params, message",
        [
            (("--mu", "nan"), "gaussian mu must be finite"),
            (("--mu", "inf"), "gaussian mu must be finite"),
            (("--sigma", "inf"), "gaussian sigma must be finite"),
            (("--mu", "1e308", "--sigma", "1e308"), "draws from Gaussian(mu=1e+308, sigma=1e+308)"),
        ],
    )
    def test_gaussian_parameter_named(self, capsys, params, message):
        code, out, err = run_cli(capsys, "experiment", "climatology", "--seed", "1", *params)
        assert code == 1
        assert out == ""
        assert err.startswith("agreeloss: error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("climatology", "--sigma", "1e-320"),
                "draws from Gaussian(mu=0.0, sigma=1e-320): NSE reference variance",
            ),
            (
                ("climatology", "--mu", "1e200", "--sigma", "1e200"),
                "standard deviation of the training draws from Gaussian(mu=1e+200, sigma=1e+200)"
                " overflows",
            ),
            (
                ("climatology", "--sigma", "4e152"),
                "model_2 on draws from Gaussian(mu=0.0, sigma=4e+152): metric lnr2 is not finite: nan",
            ),
            (
                ("linear", "--a1", "1e300", "--n-total", "200", "--split", "100"),
                "standard deviation of the training response with a1=1e+300 overflows",
            ),
        ],
    )
    def test_degenerate_sample_named(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "experiment", *argv[:1], "--seed", "1", *argv[1:])
        assert code == 1
        assert out == ""
        assert err.startswith("agreeloss: error: ") and message in err
        assert err.count("\n") == 1

    def test_repeat_runs_byte_identical(self, capsys):
        args = (
            "experiment", "climatology", "--seed", "7",
            "--n-total", "200", "--split", "100", "--format", "json",
        )
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_linear_blocks(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "experiment", "linear", "--seed", "42",
            "--a1", "0.6,6.0", "--n-total", "400", "--split", "200",
            "--format", "json",
        )
        assert code == 0
        result = result_of(out)
        assert len(result["blocks"]) == 2
        for block in result["blocks"]:
            assert len(block["models"]) == 3
            assert block["metadata"]["true_intercept"] == 2.1

    def test_linear_default_slopes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "experiment", "linear", "--seed", "5",
            "--n-total", "200", "--split", "100", "--format", "json",
        )
        assert code == 0
        blocks = result_of(out)["blocks"]
        assert [b["metadata"]["true_slope"] for b in blocks] == [0.6, 6.0, 20.0]


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    series = synthetic_series(760, seed=11, start="2000-01-01")
    path = tmp_path_factory.mktemp("hydro") / "catchment.csv"
    write_csv(series, path)
    return str(path)


class TestCalibrate:
    def test_single_loss_noiseless(self, data_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "calibrate", "--data", data_path, "--warmup-days", "90",
            "--cal", "2000-04-01:2001-03-31", "--val", "2001-04-01:2002-01-29",
            "--loss", "se", "--format", "json",
        )
        assert code == 0
        result = result_of(out)
        assert len(result["rows"]) == 1
        assert result["rows"][0]["calibration"]["mse"] < 1e-10

    def test_three_loss_diagonal_dominance(self, data_path, capsys):
        code, out, _ = run_cli(
            capsys,
            "calibrate", "--data", data_path, "--warmup-days", "90",
            "--cal", "2000-04-01:2001-03-31", "--val", "2001-04-01:2002-01-29",
            "--loss", "se,lnr2,lw", "--format", "json",
        )
        assert code == 0
        rows = result_of(out)["rows"]
        cells = {r["loss"]: r["calibration"] for r in rows}
        key = {"se": "mse", "lnr2": "lnr2", "lw": "lw"}
        for loss, metric in key.items():
            own = cells[loss][metric]
            assert all(own <= cells[other][metric] + 1e-15 for other in cells)

    def test_bad_span_exit_one(self, data_path, capsys):
        code, _, _ = run_cli(
            capsys,
            "calibrate", "--data", data_path, "--warmup-days", "90",
            "--cal", "2000-04-01:2001-03-31", "--val", "2001-03-31:2002-01-29",
            "--loss", "se",
        )
        assert code == 1

    def test_budget_exhaustion_exit_three(self, data_path, capsys):
        code, _, err = run_cli(
            capsys,
            "calibrate", "--data", data_path, "--warmup-days", "90",
            "--cal", "2000-04-01:2001-03-31", "--val", "2001-04-01:2002-01-29",
            "--loss", "se", "--max-iterations", "1",
        )
        assert code == 3
        assert err == (
            "agreeloss: no convergence: simplex minimization did not converge "
            "within 1 iterations from any start\n"
        )

    @pytest.mark.parametrize(
        "option, value", [("--max-iterations", MAX_ITERATIONS + 1), ("--restarts", MAX_RESTARTS + 1)]
    )
    def test_too_large_budget_exit_one(self, data_path, capsys, option, value):
        code, out, err = run_cli(
            capsys,
            "calibrate", "--data", data_path, "--warmup-days", "90",
            "--cal", "2000-04-01:2001-03-31", "--val", "2001-04-01:2002-01-29",
            "--loss", "se", option, str(value),
        )
        assert code == 1
        assert out == ""
        assert option in err


class TestFormats:
    def test_env_var_sets_default_format(self, tmp_path, capsys, monkeypatch):
        path = write_pairs(tmp_path, [0.0, 1.0], [0.0, 2.0])
        monkeypatch.setenv("AGREELOSS_FORMAT", "json")
        code, out, _ = run_cli(capsys, "metrics", "--input", path, "--metrics", "mse")
        assert code == 0
        json.loads(out)

    def test_invalid_env_var_exit_one(self, tmp_path, capsys, monkeypatch):
        path = write_pairs(tmp_path, [0.0, 1.0], [0.0, 2.0])
        monkeypatch.setenv("AGREELOSS_FORMAT", "xml")
        code, _, err = run_cli(capsys, "metrics", "--input", path, "--metrics", "mse")
        assert code == 1
        assert "AGREELOSS_FORMAT" in err

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        path = write_pairs(tmp_path, [0.0, 1.0], [0.0, 2.0])
        monkeypatch.setenv("AGREELOSS_FORMAT", "json")
        code, out, _ = run_cli(
            capsys, "metrics", "--input", path, "--metrics", "mse", "--format", "csv"
        )
        assert code == 0
        assert out.startswith("#")

    def test_csv_metadata_embeds_version_and_digest(self, tmp_path, capsys):
        path = write_pairs(tmp_path, [0.0, 1.0], [0.0, 2.0])
        code, out, _ = run_cli(
            capsys, "metrics", "--input", path, "--metrics", "mse", "--format", "csv"
        )
        assert code == 0
        assert "# version=" in out and "# inputs." in out

    def test_table_format_renders(self, tmp_path, capsys):
        path = write_pairs(tmp_path, [0.0, 1.0], [0.0, 2.0])
        code, out, _ = run_cli(capsys, "metrics", "--input", path, "--metrics", "mse,lw")
        assert code == 0
        assert "[metrics]" in out and "metric" in out

    def test_unknown_command_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "--help")
        assert code == 0
