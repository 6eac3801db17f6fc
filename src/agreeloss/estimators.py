"""Extremum estimation under the agreement losses.

Closed forms:

* constant fits minimize either agreement loss at ``mean(y) +/- std(y)``;
  the minimum is ``std/(std + mad)`` for the element-wise loss and exactly
  ``1/2`` for the norm-ratio loss;
* the norm-ratio linear fit has slope ``sign(rho) * ||y_c|| / ||x_c||``
  and intercept ``mean(y) - slope * mean(x)``, reaching
  ``(1 - |rho|) / 2``;
* ordinary least squares is included for reference.

The element-wise loss has no known linear closed form, so
:func:`fit_linear_lw` minimizes numerically with the embedded Nelder-Mead
simplex, warm-started from both closed-form solutions above.

Scalar profiles of both losses along constant predictions, together with
their first and second derivatives, are exposed for plotting and for
verifying the fits against finite differences.  Both profiles have a kink
at ``theta = mean(y)``; derivative calls there raise
:class:`NonDifferentiablePointError` carrying the one-sided limits.  A
profile or derivative is NaN, not a spurious 0, where its denominator
overflows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    ConvergenceError,
    DegenerateFitWarning,
    InvalidInputError,
    NonDifferentiablePointError,
    SingularDesignError,
    UndefinedValueError,
)
# The descents call the _l_w kernel on validated vectors and build no
# SeriesPair.  The name stays bound here because perfbench's tracer counts
# SeriesPair builds through it in each module that may build one.
from .losses import SeriesPair, _l_w, _mse, _power  # noqa: F401
from .vector_stats import (
    _centred_sums, _constant, _correlation, _mad, _mean, _variance, as_vector, sign
)

__all__ = [
    "CLOSED_FORM",
    "ConstantFitResult",
    "LinearFitResult",
    "MinimizeResult",
    "MinimizerConfig",
    "NUMERICAL",
    "fit_constant_lnr2",
    "fit_constant_lw",
    "fit_linear_lnr2",
    "fit_linear_lw",
    "fit_linear_ols",
    "lnr2_constant_derivative",
    "lnr2_constant_profile",
    "lnr2_constant_second_derivative",
    "lw_constant_derivative",
    "lw_constant_profile",
    "lw_constant_second_derivative",
    "minimize",
]

CLOSED_FORM = "closed_form"
NUMERICAL = "numerical"


# Fixed settings of the simplex.  A descent converges when no vertex is
# farther than _TOLERANCE from the best in any coordinate and the values
# span at most _TOLERANCE; the first simplex steps each coordinate by
# _FIRST_STEP of its size (by _FIRST_STEP itself at zero).
_TOLERANCE = 1e-10
_FIRST_STEP = 0.1


@dataclass(frozen=True)
class MinimizerConfig:
    """Budget of the embedded simplex minimizer, per start."""

    max_iterations: int = 10_000
    restarts: int = 2

    def __post_init__(self):
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be at least 1")
        if self.restarts < 0:
            raise InvalidInputError("restarts must be non-negative")


@dataclass(frozen=True)
class MinimizeResult:
    point: np.ndarray
    value: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class ConstantFitResult:
    """Both minimizers of a constant-prediction fit and the minimum loss."""

    theta_plus: float
    theta_minus: float
    min_loss: float
    loss_name: str


@dataclass(frozen=True)
class LinearFitResult:
    slope: float
    intercept: float
    achieved_loss: float
    method: str
    degenerate: bool = False

    def predict(self, x) -> np.ndarray:
        """``slope * x + intercept``; raises InvalidInputError if one overflows."""
        z = self.slope * as_vector(x) + self.intercept
        if not np.isfinite(z).all():
            raise InvalidInputError("linear fit predictions are not finite")
        return z


def _eval(objective, point: list[float]) -> float:
    value = float(objective(point))
    return math.inf if math.isnan(value) else value


def _spread(p: list[float], best: list[float]) -> float:
    """Largest coordinate distance of ``p`` from ``best``; NaN if one is NaN."""
    d = [abs(a - b) for a, b in zip(p, best)]
    return math.nan if any(map(math.isnan, d)) else max(d)


def _nelder_mead(objective, x0: list[float], scale: float, budget: int):
    """One simplex descent; returns (best_point, best_value, iters, converged)."""
    n = len(x0)
    points = [x0]
    for i in range(n):
        p = list(x0)
        p[i] += scale * (abs(p[i]) if p[i] != 0.0 else 1.0)
        points.append(p)
    values = [_eval(objective, p) for p in points]
    iters = 0
    while True:
        order = sorted(range(n + 1), key=values.__getitem__)
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        best = points[0]
        x_spread = max(_spread(p, best) for p in points[1:])
        if x_spread <= _TOLERANCE and values[-1] - values[0] <= _TOLERANCE:
            return best, values[0], iters, True
        if iters >= budget:
            return best, values[0], iters, False
        iters += 1

        # Summed in vertex order from +0.0, then divided by n, as numpy's mean
        # over rows rounds; not sum(), whose rounding Python 3.12 compensates.
        centroid = [0.0] * n
        for p in points[:-1]:
            centroid = [c + v for c, v in zip(centroid, p)]
        centroid = [c / n for c in centroid]
        worst = points[-1]
        reflected = [c + (c - w) for c, w in zip(centroid, worst)]
        f_reflected = _eval(objective, reflected)
        if values[0] <= f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[0]:
            expanded = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            f_expanded = _eval(objective, expanded)
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[-1]:
            contracted = [c + 0.5 * (r - c) for c, r in zip(centroid, reflected)]
            f_contracted = _eval(objective, contracted)
            if f_contracted <= f_reflected:
                points[-1], values[-1] = contracted, f_contracted
                continue
        else:
            contracted = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            f_contracted = _eval(objective, contracted)
            if f_contracted < values[-1]:
                points[-1], values[-1] = contracted, f_contracted
                continue
        # Shrink toward the best vertex.
        for i in range(1, n + 1):
            points[i] = [b + 0.5 * (v - b) for b, v in zip(best, points[i])]
            values[i] = _eval(objective, points[i])


def minimize(objective, starts, config: MinimizerConfig | None = None) -> MinimizeResult:
    """Derivative-free minimization by Nelder-Mead simplex descent.

    ``starts`` is a non-empty sequence of equal-length finite points, and
    ``objective`` receives each point as a list of floats.  From each start
    in turn, with ``config.max_iterations`` iterations each, the simplex
    descends; after each converged descent it is rebuilt around the best
    point at half the previous first step (``config.restarts`` times) to
    escape premature collapse.  Returns the first lowest-valued of the
    starts' results, with ``iterations`` summed over all starts.
    Deterministic for identical inputs.

    Raises:
        InvalidInputError: ``starts`` is not such a sequence, or the
            objective is not finite at a start.
        ConvergenceError: no start converged within its budget; the error
            carries the best iterate found.
    """
    cfg = config if config is not None else MinimizerConfig()
    try:
        start_points = np.asarray(starts, dtype=float)
    except (TypeError, ValueError):
        start_points = None
    if start_points is None or start_points.ndim != 2 or start_points.size == 0:
        raise InvalidInputError("starts must be a non-empty sequence of equal-length points")
    if not np.isfinite(start_points).all():
        raise InvalidInputError("start points must be finite")

    results = []
    for x0 in start_points.tolist():
        best_x, best_f = x0, _eval(objective, x0)
        if not math.isfinite(best_f):
            raise InvalidInputError("objective is not finite at the start point")
        remaining = cfg.max_iterations
        scale = _FIRST_STEP
        for _ in range(cfg.restarts + 1):
            x_run, f_run, used, converged = _nelder_mead(objective, best_x, scale, remaining)
            remaining -= used
            if f_run <= best_f:
                best_x, best_f = x_run, f_run
            # Stop on exhausted budget; a converged final run stays converged.
            if not converged or remaining <= 0:
                break
            scale *= 0.5
        results.append((best_x, best_f, cfg.max_iterations - remaining, converged))

    best_x, best_f, _, converged = min(results, key=lambda result: result[1])
    if not any(result[3] for result in results):
        raise ConvergenceError(
            f"simplex minimization did not converge within {cfg.max_iterations} "
            "iterations from any start",
            point=np.array(best_x),
            value=best_f,
        )
    return MinimizeResult(
        point=np.array(best_x),
        value=best_f,
        iterations=sum(result[2] for result in results),
        converged=converged,
    )


def _moments(y) -> tuple[float, float, float]:
    """Mean, standard deviation and mean absolute deviation of non-constant ``y``.

    ``y`` is validated once and its mean taken once; the moments are the
    ones :mod:`vector_stats` computes.

    Raises:
        InvalidInputError: a moment or ``mean +/- std`` overflows.
        UndefinedValueError: ``y`` is constant or its variance underflows to zero.
    """
    arr = as_vector(y)
    if _constant(arr):
        raise UndefinedValueError("observations must be non-constant")
    mu = _mean(arr)
    var = _variance(arr, mu)
    md = _mad(arr, mu)
    sd = math.sqrt(var)
    if not all(map(math.isfinite, (mu, var, md, mu + sd, mu - sd))):
        raise InvalidInputError(
            f"moments of the observations overflow: mean {mu}, variance {var}, mad {md}"
        )
    if var == 0.0:
        raise UndefinedValueError("the variance of the observations underflows to zero")
    return mu, sd, md


def fit_constant_lw(y) -> ConstantFitResult:
    """Constant fit under the element-wise agreement loss.

    Minimizers are ``mean(y) +/- std(y)``; the minimum equals
    ``std/(std + mad)``.
    """
    # _moments names an overflowing moment; numpy's warning would repeat it.
    with np.errstate(over="ignore"):
        mu, sd, md = _moments(y)
    return ConstantFitResult(
        theta_plus=mu + sd,
        theta_minus=mu - sd,
        min_loss=sd / (sd + md),
        loss_name="lw",
    )


def fit_constant_lnr2(y) -> ConstantFitResult:
    """Constant fit under the norm-ratio loss; the minimum is exactly 1/2."""
    with np.errstate(over="ignore"):
        mu, sd, _ = _moments(y)
    return ConstantFitResult(
        theta_plus=mu + sd,
        theta_minus=mu - sd,
        min_loss=0.5,
        loss_name="lnr2",
    )


def lw_constant_profile(theta: float, y) -> float:
    """Element-wise agreement loss of the constant prediction ``theta``.

    ``(u^2 + sd^2) / (u^2 + sd^2 + 2|u| mad)`` with ``u = theta - mean(y)``.
    Equals 1 at ``theta = mean(y)`` and tends to 1 as ``theta -> +/-inf``.
    NaN, not a spurious 0, where the denominator overflows.
    """
    mu, sd, md = _moments(y)
    u = float(theta) - mu
    num = u * u + sd**2
    den = num + 2.0 * abs(u) * md
    return math.nan if den == math.inf else num / den


def lnr2_constant_profile(theta: float, y) -> float:
    """Norm-ratio loss of the constant prediction ``theta``.

    ``(u^2 + sd^2) / (|u| + sd)^2`` with ``u = theta - mean(y)``; NaN
    where the denominator overflows.
    """
    mu, sd, _ = _moments(y)
    u = float(theta) - mu
    den = _power(abs(u) + sd, 2)
    return math.nan if den == math.inf else (u * u + sd * sd) / den


def lw_constant_derivative(theta: float, y) -> float:
    """First derivative of :func:`lw_constant_profile` in ``theta``.

    Undefined at the kink ``theta = mean(y)``; the raised error carries the
    one-sided limits ``+/- 2 mad / sd^2``.
    """
    mu, sd, md = _moments(y)
    u = float(theta) - mu
    if u == 0.0:
        limit = 2.0 * md / (sd * sd)
        raise NonDifferentiablePointError(
            "derivative does not exist at theta = mean(y)",
            left_limit=limit,
            right_limit=-limit,
        )
    num = 2.0 * md * (u * u - sd * sd) * sign(u)
    den = _power(u * u + sd * sd + 2.0 * abs(u) * md, 2)
    return math.nan if den == math.inf else num / den


def lw_constant_second_derivative(theta: float, y) -> float:
    """Second derivative of :func:`lw_constant_profile` away from the kink."""
    mu, sd, md = _moments(y)
    u = float(theta) - mu
    if u == 0.0:
        limit = 8.0 * md * md / sd**4
        raise NonDifferentiablePointError(
            "second derivative does not exist at theta = mean(y)",
            left_limit=limit,
            right_limit=limit,
        )
    sd2 = sd * sd
    num = 4.0 * md * (2.0 * md * sd2 + u * (3.0 * sd2 - u * u) * sign(u))
    den = _power(u * u + sd2 + 2.0 * abs(u) * md, 3)
    return math.nan if den == math.inf else num / den


def lnr2_constant_derivative(theta: float, y) -> float:
    """First derivative of :func:`lnr2_constant_profile` in ``theta``.

    Undefined at the kink; the raised error carries the one-sided limits
    ``+/- 2 / sd``.
    """
    mu, sd, _ = _moments(y)
    u = float(theta) - mu
    if u == 0.0:
        raise NonDifferentiablePointError(
            "derivative does not exist at theta = mean(y)",
            left_limit=2.0 / sd,
            right_limit=-2.0 / sd,
        )
    den = _power(sd + abs(u), 3)
    return math.nan if den == math.inf else 2.0 * sd * (u - sign(u) * sd) / den


def lnr2_constant_second_derivative(theta: float, y) -> float:
    """Second derivative of :func:`lnr2_constant_profile` away from the kink.

    Equals ``1/(4 sd^2)`` at the minimizers ``mean(y) +/- std(y)``.
    """
    mu, sd, _ = _moments(y)
    u = float(theta) - mu
    if u == 0.0:
        limit = 8.0 / (sd * sd)
        raise NonDifferentiablePointError(
            "second derivative does not exist at theta = mean(y)",
            left_limit=limit,
            right_limit=limit,
        )
    den = _power(sd + abs(u), 4)
    return math.nan if den == math.inf else 4.0 * sd * (2.0 * sd - abs(u)) / den


def _line_sums(x, y, ols: bool = False):
    """``(xv, yv, (mx, my, sxx, syy, sxy))``: validated, checked and centred once.

    Least squares (``ols``) allows a constant response and an infinite ``syy``.
    """
    fit = "least squares" if ols else "linear fit"
    xv = as_vector(x)
    yv = as_vector(y)
    if xv.size != yv.size:
        raise InvalidInputError(
            f"predictor and response differ in length: {xv.size} != {yv.size}"
        )
    if _constant(xv):
        raise SingularDesignError(f"{fit} requires a non-constant predictor")
    if not ols and _constant(yv):
        raise UndefinedValueError("linear fit requires non-constant observations")
    # An overflowing sum is rejected by name here or by the caller; numpy's
    # warning would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _centred_sums(xv, yv)
    sxx = sums[2]
    if not math.isfinite(sxx):
        raise InvalidInputError(f"{fit}: the predictor's centred sum of squares overflows")
    if sxx == 0.0:
        raise SingularDesignError(f"{fit}: the predictor's centred sum of squares underflows")
    return xv, yv, sums


def _ols_line(mx, my, sxx, syy, sxy) -> tuple[float, float]:
    slope = sxy / sxx
    return slope, my - slope * mx


def _nr2_line(rho, mx, my, sxx, syy, sxy) -> tuple[float, float]:
    """Slope ``sign(rho) * sqrt(syy / sxx)`` through the means; ``sign(0) = 0``."""
    scale = math.sqrt(syy / sxx)
    slope = sign(rho) * scale
    intercept = my - slope * mx
    if not (math.isfinite(scale) and math.isfinite(intercept)):
        raise InvalidInputError(f"norm-ratio fit overflows: |slope| {scale}, intercept {intercept}")
    return slope, intercept


def fit_linear_ols(x, y) -> LinearFitResult:
    """Ordinary least squares; ``achieved_loss`` is the training MSE, which must be finite."""
    xv, yv, sums = _line_sums(x, y, ols=True)
    slope, intercept = _ols_line(*sums)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = _mse(slope * xv + intercept, yv)
    if not math.isfinite(loss):
        raise InvalidInputError(f"least squares overflows: the training MSE is {loss}")
    return LinearFitResult(
        slope=slope, intercept=intercept, achieved_loss=loss, method=CLOSED_FORM
    )


def fit_linear_lnr2(x, y) -> LinearFitResult:
    """Closed-form linear fit under the norm-ratio loss.

    Slope ``sign(rho) * ||y_c|| / ||x_c||``, intercept
    ``mean(y) - slope * mean(x)``, achieved loss ``(1 - |rho|) / 2``.

    At exactly zero correlation ``sign(0) = 0`` collapses the slope to
    zero; the result is flagged ``degenerate`` and a
    :class:`DegenerateFitWarning` is emitted.  The reported loss is still
    the limiting optimum ``1/2``, which the degenerate point itself does
    not attain on re-scoring.
    """
    _, _, sums = _line_sums(x, y)
    rho = _correlation(sums)
    slope, intercept = _nr2_line(rho, *sums)
    if rho == 0.0:
        warnings.warn(
            "zero correlation: slope sign is undefined, returning the flat fit",
            DegenerateFitWarning,
            stacklevel=2,
        )
    return LinearFitResult(
        slope=slope,
        intercept=intercept,
        achieved_loss=(1.0 - abs(rho)) / 2.0,
        method=CLOSED_FORM,
        degenerate=rho == 0.0,
    )


def fit_linear_lw(x, y, config: MinimizerConfig | None = None) -> LinearFitResult:
    """Numerical linear fit under the element-wise agreement loss.

    No closed form is known for this loss, so the fit runs the embedded
    simplex minimizer from two warm starts (the least-squares and the
    norm-ratio solutions) and keeps the better outcome.

    Raises:
        ConvergenceError: no descent converged within the iteration budget;
            the error carries the best iterate found.
    """
    xv, yv, sums = _line_sums(x, y)
    rho = _correlation(sums)

    def objective(theta: list[float]) -> float:
        z = theta[0] * xv + theta[1]
        if not np.isfinite(z).all():
            return math.inf
        # yv is validated and non-constant, so l_w is defined on every z.
        return _l_w(z, yv)

    best = minimize(objective, [_ols_line(*sums), _nr2_line(rho, *sums)], config)
    return LinearFitResult(
        slope=float(best.point[0]),
        intercept=float(best.point[1]),
        achieved_loss=best.value,
        method=NUMERICAL,
    )
