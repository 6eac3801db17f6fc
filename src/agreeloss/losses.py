"""Agreement losses, error metrics, skill scores, and identification averages.

Every function operates on a :class:`SeriesPair` of predictions ``z`` and
observations ``y``.  The agreement family (``l_w``, ``l_nr2``, ``l_lmc``,
``l_kbb``, ``l_nrp``) is negatively oriented and bounded in ``[0, 1]``; it
is defined only when ``y`` is non-constant or ``z`` differs from ``y``.
Calling an agreement loss outside that domain raises
:class:`UndefinedValueError` instead of returning NaN.

:data:`METRICS` is the one registry of metric names: for each it records
the function, the orientation, whether values are bounded in ``[0, 1]``
and the array kernel where the descents have one.  :func:`score` is the
one path that scores a prediction; it rejects a value that is not finite
or out of range, naming the metric.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatchError, InvalidInputError, UndefinedValueError
from .vector_stats import _add, _constant, _mean, _ssq, _variance, as_vector, lp_mean

__all__ = [
    "METRICS",
    "Metric",
    "NEGATIVELY_ORIENTED",
    "POSITIVELY_ORIENTED",
    "SeriesPair",
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
    "resolve_metrics",
    "score",
    "skill_score",
    "v_mean_avg",
    "v_median_avg",
]

NEGATIVELY_ORIENTED = "negatively-oriented"
POSITIVELY_ORIENTED = "positively-oriented"


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


# The reduction behind np.max without its dispatch, as _add is for np.sum.
_max = np.maximum.reduce

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
    return _mean(np.abs(pair.z - pair.y))


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
    num = float(_add(np.abs(pair.z - pair.y)))
    den = float(_add(np.abs(pair.z - f))) + float(_add(np.abs(f - pair.y)))
    return _bounded_ratio(num, den)


def l_lmc_mean(pair: SeriesPair) -> float:
    """:func:`l_lmc` with the observation mean as benchmark."""
    return l_lmc(pair, _mean(pair.y))


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
    mu = _mean(pair.y)
    err = np.abs(pair.z - pair.y)
    path = np.abs(pair.z - mu) + np.abs(mu - pair.y)
    if math.isinf(p):
        return _bounded_ratio(float(_max(err)), float(_max(path)))
    return _bounded_ratio(float(_add(err**p)), float(_add(path**p)))


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
        return _bounded_ratio(float(_max(err)), float(_max(dz)) + float(_max(dy)))
    den = _power(float(_add(dz**p)) ** (1.0 / p) + float(_add(dy**p)) ** (1.0 / p), p)
    return _bounded_ratio(float(_add(err**p)), den)


def v_mean_avg(pair: SeriesPair) -> float:
    """Mean error ``mean(z - y)``; zero in expectation for mean predictions."""
    return _mean(pair.z - pair.y)


def v_median_avg(pair: SeriesPair) -> float:
    """Average median-identification value, in [-1/2, 1/2].

    ``mean(1[z - y >= 0] - 1/2)``; near zero when about half of the
    predictions exceed their observations.
    """
    above = (pair.z - pair.y) >= 0.0
    return _mean(above.astype(float) - 0.5)


@dataclass(frozen=True)
class Metric:
    """A registered metric.

    ``fn`` scores a :class:`SeriesPair`; ``agreement`` marks values bounded
    in ``[0, 1]``; ``kernel``, where there is one, is the same loss on
    validated, equal-length float vectors.
    """

    fn: Callable[[SeriesPair], float]
    orientation: str = NEGATIVELY_ORIENTED
    agreement: bool = False
    kernel: Callable[[np.ndarray, np.ndarray], float] | None = None


METRICS = {
    "mae": Metric(mae),
    "mse": Metric(mse, kernel=_mse),
    "nse": Metric(nse, POSITIVELY_ORIENTED),
    "one_minus_nse": Metric(lambda pair: 1.0 - nse(pair)),
    "lw": Metric(l_w, agreement=True, kernel=_l_w),
    "lnr2": Metric(l_nr2, agreement=True, kernel=_l_nr2),
    "vbar_mean": Metric(v_mean_avg),
    "vbar_median": Metric(v_median_avg),
    "lmc:f=mean": Metric(l_lmc_mean, agreement=True),
    "lmc:f=median": Metric(l_lmc_median, agreement=True),
}

# Agreement losses named with an exponent, as in "kbb:p=<value>".
_LP_METRICS = {"kbb": l_kbb, "nrp": l_nrp}


def _metric(spec: str) -> Metric:
    base, _, param = spec.partition(":")
    if base in METRICS:
        if param:
            raise InvalidInputError(f"metric {base!r} takes no parameter")
        return METRICS[base]
    if spec in METRICS:
        return METRICS[spec]
    if base == "lmc":
        raise InvalidInputError(f"metric lmc requires f=mean or f=median, got {spec!r}")
    if base not in _LP_METRICS:
        raise InvalidInputError(f"unknown metric {spec!r}")
    if not param.startswith("p="):
        raise InvalidInputError(f"metric {base} requires p=<value>, got {spec!r}")
    try:
        p = float(param[2:])
    except ValueError:
        raise InvalidInputError(f"invalid exponent in {spec!r}") from None
    fn = _LP_METRICS[base]
    return Metric(lambda pair: fn(pair, p), agreement=True)


def resolve_metrics(names) -> dict[str, Metric]:
    """Registry entries of metric names, in order.

    Besides the names in :data:`METRICS`, ``kbb:p=<v>`` and ``nrp:p=<v>``
    resolve to :func:`l_kbb` and :func:`l_nrp` at exponent ``v``.  Rejects a
    repeated or unknown name.
    """
    names = tuple(names)
    if len(set(names)) != len(names):
        raise InvalidInputError(f"metric names repeat: {', '.join(names)}")
    return {name: _metric(name) for name in names}


def score(pair: SeriesPair, names) -> dict[str, float]:
    """Values of the named metrics on *pair*, as ``{name: value}``.

    Rejects a value that is not finite, and an agreement value outside
    ``[0, 1]``, naming the metric; an agreement value within rounding above
    1 is snapped onto it.  An undefined metric raises its own
    :class:`UndefinedValueError`.
    """
    values = {}
    for name, metric in resolve_metrics(names).items():
        value = metric.fn(pair)
        if not math.isfinite(value):
            raise InvalidInputError(f"metric {name} is not finite: {value}")
        if metric.agreement:
            value = _snap_to_one(value)
            if not 0.0 <= value <= 1.0:
                raise InvalidInputError(f"agreement metric {name} out of [0, 1]: {value}")
        values[name] = value
    return values
