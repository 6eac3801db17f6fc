"""Lumped bucket rainfall-runoff model and its calibration harness.

The model is a single store with three parameters:

* ``capacity`` (mm): store size; also scales the evaporation demand;
* ``recession`` (per day, in (0, 1)): fraction of the store released as
  baseflow each day;
* ``split`` (in [0, 1]): fraction of rainfall bypassing the store as
  direct runoff.

Daily update, in order: direct runoff, infiltration, evaporation
(demand ``pet * min(1, store/capacity)``, capped by the store), spill of
any excess above capacity, then baseflow.  Water balance closes exactly:
total precipitation equals total simulated flow plus actual evaporation
plus storage change.

Calibration minimizes a chosen average loss (squared error or either
agreement loss) between simulated and observed flow over a calibration
span, with the embedded simplex minimizer running on unconstrained
parameters (log capacity, logit recession, logit split).  The simulation
always starts at the head of the series with the store half full; scored
days begin after the warm-up.
"""

from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass

import numpy as np

from .estimators import MinimizerConfig, minimize
from .exceptions import (
    CsvFormatError,
    InvalidInputError,
    UndefinedValueError,
)
from .losses import METRICS, SeriesPair, score
from .vector_stats import _constant

__all__ = [
    "BucketParams",
    "BucketTrace",
    "CalibrationReport",
    "CalibrationRow",
    "HydroSeries",
    "calibrate",
    "load_csv",
    "read_csv",
    "run_calibration",
    "write_csv",
]

CSV_HEADER = ("date", "precip_mm", "pet_mm", "flow_mm")

# The metric each calibration loss minimizes, by its reported name.
LOSS_METRICS = {"se": "mse", "lnr2": "lnr2", "lw": "lw"}

CALIBRATION_LOSSES = tuple(LOSS_METRICS)

# Metrics reported on each span of a calibrated model.
SPAN_METRICS = {
    "calibration": ("mse", "lnr2", "lw"),
    "validation": ("mse", "lnr2", "lw", "vbar_mean"),
}

# A column of this name holds text; every other CSV column holds numbers.
_TEXT_COLUMN = "date"


@dataclass(frozen=True)
class BucketParams:
    capacity: float
    recession: float
    split: float

    def __post_init__(self):
        if not (math.isfinite(self.capacity) and self.capacity > 0.0):
            raise InvalidInputError("capacity must be a positive, finite depth")
        if not 0.0 < self.recession < 1.0:
            raise InvalidInputError("recession must lie strictly between 0 and 1")
        if not 0.0 <= self.split <= 1.0:
            raise InvalidInputError("split must lie in [0, 1]")

    def to_dict(self) -> dict:
        return {"capacity": self.capacity, "recession": self.recession, "split": self.split}


@dataclass(frozen=True)
class HydroSeries:
    """Daily precipitation, potential evapotranspiration and flow (all mm).

    Dates must increase by exactly one day with no gaps; all values must
    be present, finite and non-negative.
    """

    dates: np.ndarray
    precip: np.ndarray
    pet: np.ndarray
    flow: np.ndarray

    def __post_init__(self):
        dates = np.asarray(self.dates, dtype="datetime64[D]")
        if dates.ndim != 1 or dates.size == 0:
            raise InvalidInputError("dates must form a non-empty 1-D sequence")
        arrays = {}
        for name in ("precip", "pet", "flow"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != dates.shape:
                raise InvalidInputError(f"{name} length does not match dates")
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"{name} contains non-finite values")
            if np.any(arr < 0.0):
                raise InvalidInputError(f"{name} contains negative values")
            arr = arr.copy()
            arr.setflags(write=False)
            arrays[name] = arr
        if dates.size > 1 and not np.all(np.diff(dates) == np.timedelta64(1, "D")):
            raise InvalidInputError("dates must increase by exactly one day")
        dates = dates.copy()
        dates.setflags(write=False)
        object.__setattr__(self, "dates", dates)
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.dates.size

    def index_of(self, day) -> int:
        """Index of *day* in the series; raises if outside the record."""
        stamp = _as_day(day)
        offset = int((stamp - self.dates[0]) / np.timedelta64(1, "D"))
        if not 0 <= offset < self.n:
            raise InvalidInputError(f"date {stamp} is outside the series record")
        return offset

    def span_slice(self, span) -> slice:
        """Inclusive (start, end) date span as an index slice."""
        start, end = span
        i0 = self.index_of(start)
        i1 = self.index_of(end)
        if i1 < i0:
            raise InvalidInputError("span end precedes span start")
        return slice(i0, i1 + 1)


def _as_day(value) -> np.datetime64:
    if isinstance(value, np.datetime64):
        return value.astype("datetime64[D]")
    if isinstance(value, _dt.date):
        return np.datetime64(value.isoformat(), "D")
    if isinstance(value, str):
        try:
            parsed = _dt.date.fromisoformat(value)
        except ValueError as exc:
            raise InvalidInputError(f"invalid ISO date {value!r}") from exc
        return np.datetime64(parsed.isoformat(), "D")
    raise InvalidInputError(f"cannot interpret {value!r} as a date")


@dataclass(frozen=True)
class BucketTrace:
    """Daily simulated flow plus the run's water-balance terms.

    ``total_evaporation`` is the actual evaporation summed day by day and
    ``final_store`` the store at the end of the last day, so that total
    precipitation equals ``flow.sum() + total_evaporation + final_store -
    initial_store`` up to rounding.
    """

    flow: np.ndarray
    total_evaporation: float
    final_store: float


def run_bucket(
    params: BucketParams, precip: np.ndarray, pet: np.ndarray, initial_store: float
) -> BucketTrace:
    """Run the daily store recurrence over the full forcing record.

    The recurrence is causal: running on the first ``k`` days gives the
    first ``k`` days of the full run, bit for bit, and its ``final_store``
    is the store at the end of day ``k``.
    """
    if not (math.isfinite(initial_store) and initial_store >= 0.0):
        raise InvalidInputError("initial_store must be non-negative and finite")
    precip = np.asarray(precip, dtype=float)
    pet = np.asarray(pet, dtype=float)
    if precip.size != pet.size:
        raise InvalidInputError(
            f"precip has {precip.size} days but pet has {pet.size}; lengths must match"
        )
    capacity = params.capacity
    recession = params.recession
    split = params.split
    keep = 1.0 - split
    flow = []
    total_evap = 0.0
    s = float(initial_store)
    # Each branch picks the value min() would, ties and NaN included, so
    # results equal the min() recurrence in tests/test_hydro.py bit for bit.
    for p, e in zip(precip.tolist(), pet.tolist()):
        direct = split * p
        s += keep * p
        fill = s / capacity
        demand = e * fill if fill < 1.0 else e
        evap = s if s < demand else demand
        s -= evap
        total_evap += evap
        spill = 0.0
        if s > capacity:
            spill = s - capacity
            s -= spill
        baseflow = recession * s
        s -= baseflow
        flow.append(direct + spill + baseflow)
    return BucketTrace(flow=np.array(flow), total_evaporation=total_evap, final_store=s)


# Unconstrained parametrization used by the minimizer.
_U_CAP_LIMIT = 20.0
_U_LOGIT_LIMIT = 30.0


def _logistic(t: float) -> float:
    t = min(_U_LOGIT_LIMIT, max(-_U_LOGIT_LIMIT, t))
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _logit(p: float) -> float:
    p = min(1.0 - 1e-12, max(1e-12, p))
    return math.log(p / (1.0 - p))


def _params_from_point(point) -> BucketParams:
    u_cap = min(_U_CAP_LIMIT, max(-_U_CAP_LIMIT, float(point[0])))
    return BucketParams(
        capacity=math.exp(u_cap),
        recession=_logistic(float(point[1])),
        split=_logistic(float(point[2])),
    )


def _point_from_params(params: BucketParams) -> tuple[float, float, float]:
    return math.log(params.capacity), _logit(params.recession), _logit(params.split)


# Two default warm starts spanning slow and flashy store behavior.
DEFAULT_STARTS = (
    BucketParams(capacity=100.0, recession=0.3, split=0.3),
    BucketParams(capacity=400.0, recession=0.05, split=0.1),
)


@dataclass(frozen=True)
class CalibrationRow:
    """One calibrated model: fitted parameters plus metrics on both spans.

    ``metrics`` maps each span (``"calibration"``, ``"validation"``) to
    its metric values by name, as listed in :data:`SPAN_METRICS`.
    """

    loss_name: str
    params: BucketParams
    metrics: dict[str, dict[str, float]]
    converged: bool

    def to_dict(self) -> dict:
        return {
            "loss": self.loss_name,
            "params": self.params.to_dict(),
            **{span: dict(values) for span, values in self.metrics.items()},
            "converged": self.converged,
        }


@dataclass(frozen=True)
class CalibrationReport:
    metadata: dict
    rows: tuple[CalibrationRow, ...]

    def row(self, loss_name: str) -> CalibrationRow:
        for row in self.rows:
            if row.loss_name == loss_name:
                return row
        raise KeyError(loss_name)

    def to_dict(self) -> dict:
        return {"metadata": dict(self.metadata), "rows": [r.to_dict() for r in self.rows]}


def _resolve_spans(series: HydroSeries, warmup_days: int, cal_span, val_span):
    if warmup_days < 0:
        raise InvalidInputError("warmup_days must be non-negative")
    cal = series.span_slice(cal_span)
    val = series.span_slice(val_span)
    if cal.start < warmup_days:
        raise InvalidInputError("calibration span must start after the warm-up period")
    if val.start <= cal.stop - 1:
        raise InvalidInputError("validation span must follow the calibration span")
    return cal, val


def calibrate(
    series: HydroSeries,
    warmup_days: int,
    cal_span,
    val_span,
    loss: str,
    config: MinimizerConfig | None = None,
    starts=None,
) -> CalibrationRow:
    """Fit the bucket model to observed flow by minimizing one average loss.

    The chosen loss (``"se"``, ``"lnr2"`` or ``"lw"``) is evaluated on the
    calibration span only; the warm-up days are simulated but never
    scored.  Each descent step simulates from the head of the record
    through the last calibration day; the fitted model is then run once
    over the whole record for the validation metrics.  Returns the
    fitted parameters together with MSE and both agreement losses on the
    calibration and validation spans, plus the mean error on the
    validation span.

    Raises:
        ConvergenceError: no simplex descent converged; carries the best
            iterate found.
    """
    if loss not in LOSS_METRICS:
        raise InvalidInputError(f"unknown calibration loss {loss!r}")
    cal, val = _resolve_spans(series, warmup_days, cal_span, val_span)
    kernel = METRICS[LOSS_METRICS[loss]].kernel
    # HydroSeries guarantees finite flows; a non-constant observed span
    # keeps every agreement loss defined, so the descent calls the array
    # kernel and skips SeriesPair.
    obs_cal = series.flow[cal]
    if loss != "se" and _constant(obs_cal):
        raise UndefinedValueError(
            "agreement-loss calibration is undefined for constant observed flow"
        )

    # The recurrence is causal: days after the calibration span cannot
    # change the scored flow, so the descent does not simulate them.
    precip_cal = series.precip[: cal.stop]
    pet_cal = series.pet[: cal.stop]

    def objective(point: list[float]) -> float:
        try:
            params = _params_from_point(point)
        except InvalidInputError:
            return math.inf
        sim = run_bucket(params, precip_cal, pet_cal, params.capacity / 2.0).flow[cal]
        if not np.isfinite(sim).all():
            return math.inf
        try:
            return kernel(sim, obs_cal)
        except UndefinedValueError:
            return math.inf

    start_params = tuple(starts) if starts is not None else DEFAULT_STARTS
    best = minimize(objective, [_point_from_params(p) for p in start_params], config)

    fitted = _params_from_point(best.point)
    trace = run_bucket(fitted, series.precip, series.pet, fitted.capacity / 2.0)
    pairs = {
        "calibration": SeriesPair(trace.flow[cal], series.flow[cal]),
        "validation": SeriesPair(trace.flow[val], series.flow[val]),
    }
    return CalibrationRow(
        loss_name=loss,
        params=fitted,
        metrics={span: score(pairs[span], names) for span, names in SPAN_METRICS.items()},
        converged=best.converged,
    )


def run_calibration(
    series: HydroSeries,
    warmup_days: int,
    cal_span,
    val_span,
    losses=CALIBRATION_LOSSES,
    config: MinimizerConfig | None = None,
) -> CalibrationReport:
    """Calibrate once per requested loss and return the combined report.

    After the first pass, every fit is cross-checked against the other
    rows' parameters: if another row scores better on a row's own loss,
    that row is re-fitted from the better parameters.  This keeps each
    row's own-loss cell minimal among the rows, as the local minimizer
    alone cannot guarantee.
    """
    losses = tuple(losses)
    if not losses:
        raise InvalidInputError("at least one calibration loss is required")
    for name in losses:
        if name not in LOSS_METRICS:
            raise InvalidInputError(f"unknown calibration loss {name!r}")

    def cal_score(row: CalibrationRow, name: str) -> float:
        return row.metrics["calibration"][LOSS_METRICS[name]]

    rows = {
        name: calibrate(series, warmup_days, cal_span, val_span, name, config)
        for name in losses
    }
    if len(losses) > 1:
        for name in losses:
            own = cal_score(rows[name], name)
            challengers = sorted(
                (cal_score(rows[other], name), other)
                for other in losses
                if other != name
            )
            best_value, best_other = challengers[0]
            if best_value < own:
                refit = calibrate(
                    series,
                    warmup_days,
                    cal_span,
                    val_span,
                    name,
                    config,
                    starts=(rows[best_other].params, rows[name].params),
                )
                if cal_score(refit, name) < own:
                    rows[name] = refit
    cal = series.span_slice(cal_span)
    val = series.span_slice(val_span)
    metadata = {
        "warmup_days": warmup_days,
        "calibration_span": [str(series.dates[cal.start]), str(series.dates[cal.stop - 1])],
        "validation_span": [str(series.dates[val.start]), str(series.dates[val.stop - 1])],
        "n_days": series.n,
        "losses": list(losses),
    }
    return CalibrationReport(metadata=metadata, rows=tuple(rows[name] for name in losses))


def read_csv(path, header: tuple[str, ...]) -> list:
    """Read a UTF-8 CSV file with an exact header, one list entry per column.

    A column named ``date`` is returned as a list of stripped strings;
    every other column as a float array, and each of its cells must be a
    finite number.  Cells must not be empty and the file must hold at least
    one data row.  Errors name the offending row (the header is row 1).
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        found = next(reader, None)
        if found is None:
            raise CsvFormatError("row 1: file is empty, expected a header")
        if [h.strip() for h in found] != list(header):
            raise CsvFormatError(
                f"row 1: expected header {','.join(header)!r}, got {','.join(found)!r}"
            )
        text = [i for i, name in enumerate(header) if name == _TEXT_COLUMN]
        numbers = [i for i, name in enumerate(header) if name != _TEXT_COLUMN]
        columns: list = [[] for _ in header]
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvFormatError(
                    f"row {line_no}: expected {len(header)} columns, got {len(row)}"
                )
            for i in text:
                cell = row[i].strip()
                if not cell:
                    raise _cell_error(line_no, header[i], cell)
                columns[i].append(cell)
            for i in numbers:
                # float() ignores surrounding blanks, as the strip above does.
                try:
                    value = float(row[i])
                except ValueError:
                    raise _cell_error(line_no, header[i], row[i]) from None
                if not math.isfinite(value):
                    raise CsvFormatError(f"row {line_no}: non-finite value in column {header[i]}")
                columns[i].append(value)
    if not columns[0]:
        raise CsvFormatError("row 2: no data rows found")
    for i in numbers:
        columns[i] = np.array(columns[i])
    return columns


def _cell_error(line_no: int, name: str, cell: str) -> CsvFormatError:
    cell = cell.strip()
    if not cell:
        return CsvFormatError(f"row {line_no}: missing value in column {name}")
    return CsvFormatError(f"row {line_no}: invalid number {cell!r} in column {name}")


def load_csv(path) -> HydroSeries:
    """Read a catchment record from CSV.

    Required header (exact): ``date,precip_mm,pet_mm,flow_mm``; dates in
    ISO-8601 ``YYYY-MM-DD``, one day apart, and values non-negative.
    Parsing follows :func:`read_csv`; every error names the offending row.
    """
    raw_dates, precip, pet, flow = read_csv(path, CSV_HEADER)
    dates: list[np.datetime64] = []
    for line_no, raw_date in enumerate(raw_dates, start=2):
        try:
            day = _dt.date.fromisoformat(raw_date)
        except ValueError:
            raise CsvFormatError(f"row {line_no}: invalid ISO date {raw_date!r}") from None
        stamp = np.datetime64(day.isoformat(), "D")
        if dates and stamp - dates[-1] != np.timedelta64(1, "D"):
            raise CsvFormatError(
                f"row {line_no}: date {raw_date} does not follow {dates[-1]} by one day"
            )
        dates.append(stamp)
    values = np.column_stack((precip, pet, flow))
    negative = np.argwhere(values < 0.0)
    if negative.size:
        i, j = negative[0]
        raise CsvFormatError(
            f"row {i + 2}: negative value {float(values[i, j])} in column {CSV_HEADER[j + 1]}"
        )
    return HydroSeries(
        dates=np.array(dates, dtype="datetime64[D]"), precip=precip, pet=pet, flow=flow
    )


def write_csv(series: HydroSeries, path) -> None:
    """Write a series in the :func:`load_csv` schema."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for i in range(series.n):
            writer.writerow(
                [
                    str(series.dates[i]),
                    repr(float(series.precip[i])),
                    repr(float(series.pet[i])),
                    repr(float(series.flow[i])),
                ]
            )
