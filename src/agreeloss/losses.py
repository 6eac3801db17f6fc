"""Agreement losses, error metrics, skill scores, and identification averages.

Every function operates on a :class:`SeriesPair` of predictions ``z`` and
observations ``y``.  The agreement family (``l_w``, ``l_nr2``, ``l_lmc``,
``l_kbb``, ``l_nrp``) is negatively oriented and bounded in ``[0, 1]``; it
is defined only when ``y`` is non-constant or ``z`` differs from ``y``.
Calling an agreement loss outside that domain raises
:class:`UndefinedValueError` instead of returning NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatchError, InvalidInputError, UndefinedValueError
from .vector_stats import _constant, _mean, _ssq, _variance, as_vector, lp_mean

__all__ = [
    "MetricEntry",
    "MetricReport",
    "NEGATIVELY_ORIENTED",
    "POSITIVELY_ORIENTED",
    "SeriesPair",
    "is_agreement_metric",
    "l_kbb",
    "l_lmc",
    "l_lmc_mean",
    "l_lmc_median",
    "l_nr2",
    "l_nrp",
    "l_w",
    "mae",
    "mse",
    "nse",
    "skill_score",
    "v_mean_avg",
    "v_median_avg",
]

NEGATIVELY_ORIENTED = "negatively-oriented"
POSITIVELY_ORIENTED = "positively-oriented"

# Metric names whose values must lie in [0, 1]. Parametrized names such as
# "kbb:p=2" match on the part before the colon.
_AGREEMENT_BASES = frozenset({"lw", "lnr2", "lmc", "kbb", "nrp"})


@dataclass(frozen=True)
class SeriesPair:
    """Aligned predictions ``z`` and observations ``y`` of equal length.

    On construction both vectors are validated (finite, 1-D, equal length)
    and two flags are derived: ``y_nonconstant`` (some two observations
    differ) and ``z_differs`` (predictions differ from observations at one
    index or more).
    """

    z: np.ndarray
    y: np.ndarray
    y_nonconstant: bool = field(init=False)
    z_differs: bool = field(init=False)

    def __post_init__(self):
        z = as_vector(self.z)
        y = as_vector(self.y)
        if z.size != y.size:
            raise DimensionMismatchError(
                f"predictions and observations differ in length: {z.size} != {y.size}"
            )
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "y_nonconstant", not _constant(y))
        object.__setattr__(self, "z_differs", np.count_nonzero(z != y) > 0)

    @property
    def n(self) -> int:
        return self.z.size

    @property
    def agreement_defined(self) -> bool:
        """Domain condition of the agreement family."""
        return self.y_nonconstant or self.z_differs


def _require_agreement_defined(pair: SeriesPair) -> None:
    if not pair.agreement_defined:
        raise UndefinedValueError(
            "agreement loss is undefined: observations are constant and "
            "predictions equal them"
        )


# Distance above 1 within which an agreement value is rounding, not a defect.
_ONE_SNAP = 1e-12


def _snap_to_one(value: float) -> float:
    return 1.0 if 1.0 < value <= 1.0 + _ONE_SNAP else value


def _bounded_ratio(num: float, den: float) -> float:
    """Ratio of non-negative terms whose true value lies in [0, 1].

    Summation rounding can push the quotient a few ulp past 1 when
    numerator and denominator coincide; snap that sliver back onto the
    boundary.  Anything materially above 1 would indicate a real defect
    and is returned unclamped so the bound tests can catch it.
    """
    if den == 0.0:
        raise UndefinedValueError("agreement loss denominator is zero")
    if den == math.inf and num != 0.0:
        # The denominator overflowed, so the ratio is unknown; NaN lets
        # callers reject it by name instead of reporting a spurious 0.
        return math.nan
    return _snap_to_one(num / den)


def _power(base: float, p: float) -> float:
    """``base ** p`` for ``base >= 0``; inf where Python raises OverflowError."""
    try:
        return base**p
    except OverflowError:
        return math.inf


# Array kernels of the losses that the descents minimize.  They take
# validated, equal-length float vectors and skip the SeriesPair checks.
def _mse(z: np.ndarray, y: np.ndarray) -> float:
    return _ssq(z - y) / z.size


def _l_w(z: np.ndarray, y: np.ndarray) -> float:
    mu = _mean(y)
    path = np.abs(z - mu)
    path += np.abs(mu - y)
    return _bounded_ratio(_ssq(z - y), _ssq(path))


def _l_nr2(z: np.ndarray, y: np.ndarray) -> float:
    mu = _mean(y)
    den = _power(math.sqrt(_ssq(z - mu)) + math.sqrt(_ssq(mu - y)), 2)
    return _bounded_ratio(_ssq(z - y), den)


def mae(pair: SeriesPair) -> float:
    """Mean absolute error."""
    return float(np.mean(np.abs(pair.z - pair.y)))


def mse(pair: SeriesPair) -> float:
    """Mean squared error."""
    return _mse(pair.z, pair.y)


def nse(pair: SeriesPair) -> float:
    """Nash-Sutcliffe efficiency: 1 - MSE(z, y) / MSE(mean(y), y).

    Positively oriented, at most 1; zero for the mean-climatology
    prediction.  Undefined when the observations are constant or their
    variance underflows to zero.
    """
    if not pair.y_nonconstant:
        raise UndefinedValueError(
            "NSE reference is undefined for constant observations"
        )
    reference = _variance(pair.y, _mean(pair.y))
    if reference == 0.0:
        raise UndefinedValueError("NSE reference variance underflows to zero")
    return 1.0 - mse(pair) / reference


def skill_score(loss_avg_z: float, loss_avg_ref: float) -> float:
    """Relative improvement over a reference: 1 - loss_z / loss_ref.

    Assumes the underlying loss has minimum 0 (so the optimal average loss
    is 0).  Positively oriented.
    """
    if loss_avg_z < 0.0 or loss_avg_ref < 0.0:
        raise InvalidInputError("average losses must be non-negative")
    if loss_avg_ref == 0.0:
        raise UndefinedValueError(
            "skill score is undefined: the reference prediction is already perfect"
        )
    return 1.0 - loss_avg_z / loss_avg_ref


def l_w(pair: SeriesPair) -> float:
    """Agreement loss with element-wise absolute-deviation denominator.

    ``sum((z - y)**2) / sum((|z - mu(y)| + |mu(y) - y|)**2)``, in [0, 1].
    Zero exactly when ``z == y`` with non-constant ``y``.
    """
    _require_agreement_defined(pair)
    return _l_w(pair.z, pair.y)


def l_nr2(pair: SeriesPair) -> float:
    """Norm-ratio agreement loss.

    ``||z - y||^2 / (||z - mu(y)|| + ||mu(y) - y||)**2`` with Euclidean
    norms, in [0, 1].  Replaces the element-wise denominator of :func:`l_w`
    by a sum of distances, so the bound follows from the triangle
    inequality.
    """
    _require_agreement_defined(pair)
    return _l_nr2(pair.z, pair.y)


def l_lmc(pair: SeriesPair, f_of_y: float) -> float:
    """Manhattan-norm agreement loss against a caller-supplied benchmark.

    ``||z - y||_1 / (||z - f||_1 + ||f - y||_1)`` where ``f_of_y`` is the
    benchmark scalar (commonly the mean or the median of ``y``).
    """
    f = float(f_of_y)
    if not math.isfinite(f):
        raise InvalidInputError("benchmark value must be finite")
    num = float(np.sum(np.abs(pair.z - pair.y)))
    den = float(np.sum(np.abs(pair.z - f)) + np.sum(np.abs(f - pair.y)))
    return _bounded_ratio(num, den)


def l_lmc_mean(pair: SeriesPair) -> float:
    """:func:`l_lmc` with the observation mean as benchmark."""
    return l_lmc(pair, float(np.mean(pair.y)))


def l_lmc_median(pair: SeriesPair) -> float:
    """:func:`l_lmc` with the observation median as benchmark."""
    return l_lmc(pair, float(np.median(pair.y)))


def _validate_p(p) -> float:
    p = float(p)
    if not p >= 1.0:
        raise InvalidInputError(f"exponent p must be >= 1, got {p}")
    return p


def l_kbb(pair: SeriesPair, p) -> float:
    """L_p generalization of :func:`l_w` with mean benchmark.

    ``sum(|z - y|**p) / sum((|z - mu(y)| + |mu(y) - y|)**p)``; reduces to
    :func:`l_w` at ``p = 2``.  ``p = inf`` is the Chebyshev limit (max
    ratio, outer power 1).
    """
    p = _validate_p(p)
    _require_agreement_defined(pair)
    mu = float(np.mean(pair.y))
    err = np.abs(pair.z - pair.y)
    path = np.abs(pair.z - mu) + np.abs(mu - pair.y)
    if math.isinf(p):
        return _bounded_ratio(float(np.max(err)), float(np.max(path)))
    return _bounded_ratio(float(np.sum(err**p)), float(np.sum(path**p)))


def l_nrp(pair: SeriesPair, p) -> float:
    """L_p norm-ratio agreement loss with the L_p mean as benchmark.

    ``||z - y||_p**p / (||z - m||_p + ||m - y||_p)**p`` with
    ``m = lp_mean(y, p)``; reduces to :func:`l_nr2` at ``p = 2``.  ``p =
    inf`` is the Chebyshev limit (outer power 1, midrange benchmark).
    """
    p = _validate_p(p)
    _require_agreement_defined(pair)
    m = lp_mean(pair.y, p)
    err = np.abs(pair.z - pair.y)
    dz = np.abs(pair.z - m)
    dy = np.abs(m - pair.y)
    if math.isinf(p):
        return _bounded_ratio(float(np.max(err)), float(np.max(dz)) + float(np.max(dy)))
    den = _power(float(np.sum(dz**p)) ** (1.0 / p) + float(np.sum(dy**p)) ** (1.0 / p), p)
    return _bounded_ratio(float(np.sum(err**p)), den)


def v_mean_avg(pair: SeriesPair) -> float:
    """Mean error ``mean(z - y)``; zero in expectation for mean predictions."""
    return float(np.mean(pair.z - pair.y))


def v_median_avg(pair: SeriesPair) -> float:
    """Average median-identification value, in [-1/2, 1/2].

    ``mean(1[z - y >= 0] - 1/2)``; near zero when about half of the
    predictions exceed their observations.
    """
    above = (pair.z - pair.y) >= 0.0
    return float(np.mean(above.astype(float) - 0.5))


def is_agreement_metric(name: str) -> bool:
    """True for metric names whose values must lie in [0, 1]."""
    return name.split(":", 1)[0] in _AGREEMENT_BASES


@dataclass(frozen=True)
class MetricEntry:
    """One named metric value; ``value`` is None for undefined requests."""

    name: str
    value: float | None
    orientation: str


@dataclass(frozen=True)
class MetricReport:
    """Ordered metric values with orientation tags.

    Rejects duplicate metric names, non-finite values and agreement values
    outside [0, 1]; an agreement value within rounding of 1 is snapped
    onto it, as the losses themselves do.
    """

    entries: tuple[MetricEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        names = [e.name for e in entries]
        if len(set(names)) != len(names):
            raise InvalidInputError("duplicate metric names in report")
        cleaned = []
        for e in entries:
            value = e.value
            if value is not None:
                if not math.isfinite(value):
                    raise InvalidInputError(f"metric {e.name} is not finite: {value}")
                if is_agreement_metric(e.name):
                    value = _snap_to_one(value)
                    if not 0.0 <= value <= 1.0:
                        raise InvalidInputError(
                            f"agreement metric {e.name} out of [0, 1]: {value}"
                        )
            cleaned.append(MetricEntry(e.name, value, e.orientation))
        object.__setattr__(self, "entries", tuple(cleaned))

    def has_undefined(self) -> bool:
        return any(e.value is None for e in self.entries)
