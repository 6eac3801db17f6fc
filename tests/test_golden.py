"""Golden outputs: every subcommand's stdout, compared byte for byte.

The inputs are small fixed files written into a fresh directory and named
by relative paths, so the ``options`` and ``inputs`` keys of each document
are the same on every run.  A refactor must leave every golden file
unchanged.  After a deliberate change of output, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from agreeloss.cli import main
from agreeloss.hydro import write_csv

from conftest import synthetic_series

# A warning that leaks from any invocation fails the run.
pytestmark = pytest.mark.filterwarnings("error")

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

PAIRS = [(0.5, 1.0), (2.25, 1.75), (-1.0, 0.5), (3.5, 4.0), (1.0, -0.25), (2.0, 2.5)]
SERIES = [1.5, 2.25, -0.75, 4.0, 3.125, 0.5, 2.0]
TRAIN = [(0.0, 0.3), (1.0, 2.1), (2.0, 3.7), (3.0, 6.4), (4.0, 7.6), (5.0, 10.3), (6.0, 11.8)]
TEST = [(0.5, 1.4), (2.5, 5.2), (4.5, 8.7), (5.5, 11.4)]
# Exactly uncorrelated rows: the norm-ratio fit is the flagged flat line.
FLAT = [(1.0, 1.0), (2.0, 0.0), (3.0, 1.0)]

ALL_METRICS = (
    "mae,mse,nse,one_minus_nse,lw,lnr2,vbar_mean,vbar_median,"
    "lmc:f=mean,lmc:f=median,kbb:p=2,nrp:p=1.5"
)

CASES = {
    "metrics": ["metrics", "--input", "pairs.csv", "--metrics", ALL_METRICS],
    "metrics_as_index": ["metrics", "--input", "pairs.csv", "--metrics", ALL_METRICS, "--as-index"],
    "fit_constant_lw": ["fit-constant", "--loss", "lw", "--input", "series.csv"],
    "fit_constant_lnr2": ["fit-constant", "--loss", "lnr2", "--input", "series.csv"],
    "fit_linear_se": ["fit-linear", "--loss", "se", "--train", "train.csv", "--test", "test.csv"],
    "fit_linear_lnr2": ["fit-linear", "--loss", "lnr2", "--train", "train.csv", "--test", "test.csv"],
    "fit_linear_lw": ["fit-linear", "--loss", "lw", "--train", "train.csv", "--test", "test.csv"],
    "fit_linear_lnr2_flat": ["fit-linear", "--loss", "lnr2", "--train", "flat.csv"],
    "profile_lw": ["profile", "--loss", "lw", "--input", "series.csv",
                   "--min", "-2", "--max", "5", "--steps", "8"],
    "profile_lnr2": ["profile", "--loss", "lnr2", "--input", "series.csv",
                     "--min", "-2", "--max", "5", "--steps", "8"],
    "experiment_climatology": ["experiment", "climatology", "--seed", "42",
                               "--n-total", "200", "--split", "100"],
    "experiment_linear": ["experiment", "linear", "--seed", "7",
                          "--n-total", "300", "--split", "150"],
    "calibrate": ["calibrate", "--data", "catchment.csv", "--warmup-days", "20",
                  "--cal", "2000-01-21:2000-02-29", "--val", "2000-03-01:2000-04-29"],
}

FORMATS = {name: ("json",) for name in CASES}
FORMATS["metrics"] = ("json", "csv", "table")
FORMATS["calibrate"] = ("json", "csv", "table")

EXTENSIONS = {"json": "json", "csv": "csv", "table": "txt"}

PARAMS = [(name, fmt) for name in CASES for fmt in FORMATS[name]]


def _write_rows(path: Path, header: str, rows) -> None:
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs(directory: Path) -> None:
    _write_rows(directory / "pairs.csv", "z,y", PAIRS)
    _write_rows(directory / "series.csv", "y", [(v,) for v in SERIES])
    _write_rows(directory / "train.csv", "x,y", TRAIN)
    _write_rows(directory / "test.csv", "x,y", TEST)
    _write_rows(directory / "flat.csv", "x,y", FLAT)
    write_csv(synthetic_series(120, noise=0.3, start="2000-01-01"), directory / "catchment.csv")


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN_DIR / f"{name}.{EXTENSIONS[fmt]}"


def run_case(name: str, fmt: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(CASES[name] + ["--format", fmt])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden_inputs")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("name,fmt", PARAMS, ids=[f"{n}-{f}" for n, f in PARAMS])
def test_stdout_matches_golden(name, fmt, input_dir, monkeypatch):
    monkeypatch.chdir(input_dir)
    code, out = run_case(name, fmt)
    assert code == 0
    assert out.encode("utf-8") == golden_path(name, fmt).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, fmt in PARAMS:
                code, out = run_case(name, fmt)
                if code != 0:
                    raise SystemExit(f"{name} {fmt}: exit code {code}")
                golden_path(name, fmt).write_bytes(out.encode("utf-8"))
        finally:
            os.chdir(cwd)
