"""Command-line interface.

Subcommands: ``metrics``, ``fit-constant``, ``fit-linear``, ``profile``,
``experiment``, ``calibrate``.  Output format is ``json``, ``csv`` or
``table`` (``--format``, falling back to the ``AGREELOSS_FORMAT``
environment variable, then ``table``).

Every output document embeds the tool version, the fully resolved options
(including the seed) and SHA-256 digests of all input files, so a run can
be reproduced bit-identically.  No timestamps are emitted.

Exit codes: 0 success, 1 input error, 2 mathematically undefined request,
3 convergence failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .estimators import (
    MinimizerConfig,
    fit_constant_lnr2,
    fit_constant_lw,
    fit_linear_lnr2,
    fit_linear_lw,
    fit_linear_ols,
    lnr2_constant_profile,
    lw_constant_profile,
)
from .exceptions import (
    ConvergenceError,
    CsvFormatError,
    DegenerateFitWarning,
    InvalidInputError,
    UndefinedValueError,
)
from .hydro import CALIBRATION_LOSSES, load_csv, read_csv, run_calibration
from .losses import POSITIVELY_ORIENTED, SeriesPair, resolve_metrics, score
# Every metric is scored through losses.score.  These names stay bound
# because perfbench's tracer wraps them here.
from .losses import l_kbb, l_lmc_mean, l_lmc_median, l_nrp  # noqa: F401
from .simulate import Gaussian, Rng, run_climatology_experiment, run_linear_experiment

PROG = "agreeloss"
FORMATS = ("json", "csv", "table")
FORMAT_ENV_VAR = "AGREELOSS_FORMAT"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNDEFINED = 2
EXIT_NO_CONVERGENCE = 3

# Upper bounds on sizes that set how much is allocated and computed.
MAX_STEPS = 10**6
MAX_N_TOTAL = 10**6
MAX_SLOPES = 100
MAX_ITERATIONS = 10**6
MAX_RESTARTS = 100


@dataclass
class Table:
    """One output table; each row picks the columns from one record."""

    name: str
    columns: list[str]
    records: list[dict]

    def rows(self) -> list[list]:
        return [[record[c] for c in self.columns] for record in self.records]


@dataclass
class Output:
    command: str
    options: dict
    inputs: dict
    result: dict
    tables: list[Table]
    exit_code: int = EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits with code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_INPUT_ERROR)


def _u64(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _int_at_most(limit: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}, got {value}")
        return value

    return parse


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from None
    if not 1 <= len(values) <= MAX_SLOPES:
        raise argparse.ArgumentTypeError(f"must list at least one value and at most {MAX_SLOPES}")
    return values


def _span(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a span like 2001-01-01:2008-12-31, got {text!r}")
    return parts[0], parts[1]


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description="Agreement-loss metrics, fits and experiments")
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default=None, help="output format")

    p = sub.add_parser("metrics", help="compute metrics on a prediction/observation file")
    p.add_argument("--input", required=True, help="CSV file with header z,y")
    p.add_argument("--metrics", required=True, help="comma-separated metric list")
    p.add_argument(
        "--as-index",
        action="store_true",
        help="report agreement losses as positively oriented indices (1 - loss)",
    )
    add_format(p)
    p.set_defaults(handler=cmd_metrics)

    p = sub.add_parser("fit-constant", help="closed-form constant fit")
    p.add_argument("--loss", required=True, choices=("lw", "lnr2"))
    p.add_argument("--input", required=True, help="CSV file with header y")
    add_format(p)
    p.set_defaults(handler=cmd_fit_constant)

    p = sub.add_parser("fit-linear", help="linear fit under a chosen loss")
    p.add_argument("--loss", required=True, choices=("se", "lnr2", "lw"))
    p.add_argument("--train", required=True, help="CSV file with header x,y")
    p.add_argument("--test", default=None, help="optional CSV file with header x,y")
    add_format(p)
    p.set_defaults(handler=cmd_fit_linear)

    p = sub.add_parser("profile", help="constant-prediction loss profile over a theta grid")
    p.add_argument("--loss", required=True, choices=("lw", "lnr2"))
    p.add_argument("--input", required=True, help="CSV file with header y")
    p.add_argument("--min", required=True, type=float, dest="theta_min")
    p.add_argument("--max", required=True, type=float, dest="theta_max")
    p.add_argument("--steps", required=True, type=_int_at_most(MAX_STEPS))
    add_format(p)
    p.set_defaults(handler=cmd_profile)

    p = sub.add_parser("experiment", help="run a seeded simulation experiment")
    p.add_argument("kind", choices=("climatology", "linear"))
    p.add_argument("--seed", required=True, type=_u64, help="RNG seed (required)")
    p.add_argument("--stream-id", type=_u64, default=0)
    p.add_argument("--n-total", type=_int_at_most(MAX_N_TOTAL), default=None)
    p.add_argument("--split", type=int, default=None)
    p.add_argument("--mu", type=float, default=0.0, help="gaussian mean (climatology)")
    p.add_argument("--sigma", type=float, default=1.0, help="gaussian sd (climatology)")
    p.add_argument("--a1", type=_float_list, default=None, help="slope list (linear)")
    add_format(p)
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("calibrate", help="calibrate the bucket model on a catchment file")
    p.add_argument("--data", required=True, help="CSV file with header date,precip_mm,pet_mm,flow_mm")
    p.add_argument("--warmup-days", required=True, type=int)
    p.add_argument("--cal", required=True, type=_span, help="calibration span d1:d2")
    p.add_argument("--val", required=True, type=_span, help="validation span d1:d2")
    p.add_argument("--loss", default=",".join(CALIBRATION_LOSSES), help="comma-separated loss list")
    p.add_argument(
        "--max-iterations", type=_int_at_most(MAX_ITERATIONS), default=MinimizerConfig.max_iterations
    )
    p.add_argument("--restarts", type=_int_at_most(MAX_RESTARTS), default=MinimizerConfig.restarts)
    add_format(p)
    p.set_defaults(handler=cmd_calibrate)

    return parser


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def cmd_metrics(args) -> Output:
    z, y = read_csv(args.input, ("z", "y"))
    pair = SeriesPair(z, y)
    specs = [s.strip() for s in args.metrics.split(",") if s.strip()]
    if not specs:
        raise InvalidInputError("no metrics requested")
    records = []
    # One spec at a time, so that an undefined metric is reported as such.
    for spec, metric in resolve_metrics(specs).items():
        try:
            value = score(pair, [spec])[spec]
        except UndefinedValueError:
            value = None
        orientation = metric.orientation
        if args.as_index and value is not None and metric.agreement:
            value, orientation = 1.0 - value, POSITIVELY_ORIENTED
        records.append({"name": spec, "value": value, "orientation": orientation})
    return Output(
        command="metrics",
        options={
            "input": args.input,
            "metrics": specs,
            "as_index": bool(args.as_index),
        },
        inputs={args.input: _digest(args.input)},
        result={"n": pair.n, "metrics": records},
        tables=[
            Table(
                "metrics",
                ["metric", "value", "orientation"],
                [dict(r, metric=r["name"]) for r in records],
            )
        ],
        exit_code=EXIT_UNDEFINED if any(r["value"] is None for r in records) else EXIT_OK,
    )


def cmd_fit_constant(args) -> Output:
    (y,) = read_csv(args.input, ("y",))
    fit = fit_constant_lw(y) if args.loss == "lw" else fit_constant_lnr2(y)
    result = {
        "loss": fit.loss_name,
        "theta_plus": fit.theta_plus,
        "theta_minus": fit.theta_minus,
        "min_loss": fit.min_loss,
        "n": int(y.size),
    }
    return Output(
        command="fit-constant",
        options={"loss": args.loss, "input": args.input},
        inputs={args.input: _digest(args.input)},
        result=result,
        tables=[Table("fit", ["loss", "theta_plus", "theta_minus", "min_loss"], [result])],
    )


def cmd_fit_linear(args) -> Output:
    x, y = read_csv(args.train, ("x", "y"))
    if args.loss == "se":
        fit = fit_linear_ols(x, y)
    elif args.loss == "lnr2":
        fit = fit_linear_lnr2(x, y)
    else:
        fit = fit_linear_lw(x, y)
    result = {
        "loss": args.loss,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "achieved_loss": fit.achieved_loss,
        "method": fit.method,
        "degenerate": fit.degenerate,
        "n_train": int(x.size),
    }
    inputs = {args.train: _digest(args.train)}
    tables = [
        Table(
            "fit", ["loss", "slope", "intercept", "achieved_loss", "method", "degenerate"], [result]
        )
    ]
    if args.test is not None:
        x_test, y_test = read_csv(args.test, ("x", "y"))
        scores = score(SeriesPair(fit.predict(x_test), y_test), ("mse", "lnr2", "lw", "vbar_mean"))
        result["test"] = dict(scores, n=int(x_test.size))
        inputs[args.test] = _digest(args.test)
        tables.append(Table("test", list(scores), [scores]))
    return Output(
        command="fit-linear",
        options={"loss": args.loss, "train": args.train, "test": args.test},
        inputs=inputs,
        result=result,
        tables=tables,
    )


def cmd_profile(args) -> Output:
    (y,) = read_csv(args.input, ("y",))
    if args.steps < 2:
        raise InvalidInputError("profile grid needs at least 2 steps")
    # Also rejects a non-finite bound and a range whose width overflows.
    if not math.isfinite(args.theta_max - args.theta_min):
        raise InvalidInputError(f"--min {args.theta_min} and --max {args.theta_max} "
                                "must span a finite range")
    if not args.theta_min < args.theta_max:
        raise InvalidInputError("--min must be smaller than --max")
    if args.loss == "lw":
        profile = lw_constant_profile
        fit = fit_constant_lw(y)
    else:
        profile = lnr2_constant_profile
        fit = fit_constant_lnr2(y)
    grid = np.linspace(args.theta_min, args.theta_max, args.steps).tolist()
    points = [(theta, profile(theta, y), "") for theta in grid]
    points.append((fit.theta_minus, profile(fit.theta_minus, y), "minimum"))
    points.append((fit.theta_plus, profile(fit.theta_plus, y), "minimum"))
    for theta, loss, _ in points:
        if not math.isfinite(loss):
            raise InvalidInputError(f"the {args.loss} profile is not finite at theta = {theta}")
    points.sort(key=lambda item: item[0])
    result = {
        "loss": args.loss,
        "theta_plus": fit.theta_plus,
        "theta_minus": fit.theta_minus,
        "min_loss": fit.min_loss,
        "rows": [{"theta": t, "loss": v, "annotation": a} for t, v, a in points],
    }
    return Output(
        command="profile",
        options={
            "loss": args.loss,
            "input": args.input,
            "min": args.theta_min,
            "max": args.theta_max,
            "steps": args.steps,
        },
        inputs={args.input: _digest(args.input)},
        result=result,
        tables=[Table("profile", ["theta", "loss", "annotation"], result["rows"])],
    )


_EXPERIMENT_DEFAULTS = {
    "climatology": {"n_total": 1000, "split": 500},
    "linear": {"n_total": 4000, "split": 2000},
}


def cmd_experiment(args) -> Output:
    defaults = _EXPERIMENT_DEFAULTS[args.kind]
    n_total = args.n_total if args.n_total is not None else defaults["n_total"]
    split = args.split if args.split is not None else defaults["split"]
    options = {
        "kind": args.kind,
        "seed": args.seed,
        "stream_id": args.stream_id,
        "n_total": n_total,
        "split": split,
    }
    if args.kind == "climatology":
        options.update(mu=args.mu, sigma=args.sigma)
        report = run_climatology_experiment(
            n_total, split, Gaussian(args.mu, args.sigma), Rng(args.seed, args.stream_id)
        )
        result = report.to_dict()
        tables = [Table("models", list(report.columns), list(report.models))]
    else:
        slopes = args.a1 if args.a1 else [0.6, 6.0, 20.0]
        options.update(a1=slopes)
        # Each slope block reruns the generator from the same seed, so the
        # predictor and noise realizations are shared across blocks.
        reports = [
            run_linear_experiment(a1, n_total, split, Rng(args.seed, args.stream_id))
            for a1 in slopes
        ]
        result = {"blocks": [r.to_dict() for r in reports]}
        rows = [dict(row, a1=a1) for a1, report in zip(slopes, reports) for row in report.models]
        tables = [Table("models", ["a1", *reports[0].columns], rows)]
    return Output(
        command="experiment",
        options=options,
        inputs={},
        result=result,
        tables=tables,
    )


def cmd_calibrate(args) -> Output:
    losses = tuple(s.strip() for s in args.loss.split(",") if s.strip())
    for name in losses:
        if name not in CALIBRATION_LOSSES:
            raise InvalidInputError(f"unknown calibration loss {name!r}")
    series = load_csv(args.data)
    config = MinimizerConfig(max_iterations=args.max_iterations, restarts=args.restarts)
    report = run_calibration(series, args.warmup_days, args.cal, args.val, losses, config)
    result = report.to_dict()
    cal = [
        {"loss": r.loss_name, **r.params.to_dict(), **r.metrics["calibration"]} for r in report.rows
    ]
    val = [{"loss": r.loss_name, **r.metrics["validation"]} for r in report.rows]
    return Output(
        command="calibrate",
        options={
            "data": args.data,
            "warmup_days": args.warmup_days,
            "cal": list(args.cal),
            "val": list(args.val),
            "loss": list(losses),
            "max_iterations": args.max_iterations,
            "restarts": args.restarts,
        },
        inputs={args.data: _digest(args.data)},
        result=result,
        tables=[
            Table("calibration", ["loss", "capacity", "recession", "split", "mse", "lnr2", "lw"], cal),
            Table("validation", ["loss", "mse", "lnr2", "lw"], val),
            Table("vbar_mean", ["loss", "vbar_mean"], val),
        ],
    )


def _cell(value, float_text) -> str:
    """One table cell; ``float_text`` renders floats (``repr`` for CSV)."""
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float_text(value)
    return str(value)


# Floats in plain-text tables: ten significant digits.
_table_float = "{:.10g}".format


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], out)
    elif isinstance(value, (list, tuple)):
        out[prefix] = ",".join(str(v) for v in value)
    else:
        out[prefix] = value


def render(output: Output, fmt: str) -> str:
    envelope = {
        "tool": PROG,
        "version": __version__,
        "command": output.command,
        "options": output.options,
        "inputs": output.inputs,
        "result": output.result,
    }
    if fmt == "json":
        return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
    meta: dict = {}
    _flatten("", {"tool": PROG, "version": __version__, "command": output.command}, meta)
    _flatten("options", output.options, meta)
    _flatten("inputs", output.inputs, meta)
    if fmt == "csv":
        buf = io.StringIO()
        for key, value in meta.items():
            buf.write(f"# {key}={_cell(value, repr)}\n")
        for table in output.tables:
            if len(output.tables) > 1:
                buf.write(f"# table={table.name}\n")
            buf.write(",".join(table.columns) + "\n")
            for row in table.rows():
                buf.write(",".join(_cell(v, repr) for v in row) + "\n")
        return buf.getvalue()
    # Plain-text tables.
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"{key}: {_cell(value, _table_float)}\n")
    for table in output.tables:
        buf.write(f"\n[{table.name}]\n")
        cells = [[_cell(v, _table_float) for v in row] for row in table.rows()]
        widths = [
            max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
            for i, col in enumerate(table.columns)
        ]
        buf.write("  ".join(col.ljust(w) for col, w in zip(table.columns, widths)).rstrip() + "\n")
        for row in cells:
            buf.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
    return buf.getvalue()


def _resolve_format(args) -> str:
    if args.format is not None:
        return args.format
    env = os.environ.get(FORMAT_ENV_VAR)
    if env is None or env == "":
        return "table"
    if env not in FORMATS:
        raise InvalidInputError(
            f"invalid {FORMAT_ENV_VAR} value {env!r}; expected one of {', '.join(FORMATS)}"
        )
    return env


def _show_warning(show, message, category, *args, **kwargs) -> None:
    """One ``agreeloss: warning:`` line for a degenerate fit; ``show`` prints the rest."""
    if issubclass(category, DegenerateFitWarning):
        sys.stderr.write(f"{PROG}: warning: {message}\n")
    else:
        show(message, category, *args, **kwargs)


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT_ERROR
    try:
        fmt = _resolve_format(args)
        with warnings.catch_warnings():
            warnings.simplefilter("always", DegenerateFitWarning)
            warnings.showwarning = functools.partial(_show_warning, warnings.showwarning)
            # Values that overflow are rejected by name; numpy's warnings
            # would only repeat that on stderr.
            with np.errstate(over="ignore", invalid="ignore"):
                output = args.handler(args)
        sys.stdout.write(render(output, fmt))
        return output.exit_code
    except UndefinedValueError as exc:
        sys.stderr.write(f"{PROG}: undefined: {exc}\n")
        return EXIT_UNDEFINED
    except ConvergenceError as exc:
        sys.stderr.write(f"{PROG}: no convergence: {exc}\n")
        return EXIT_NO_CONVERGENCE
    except (InvalidInputError, OSError) as exc:
        sys.stderr.write(f"{PROG}: error: {exc}\n")
        return EXIT_INPUT_ERROR


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
