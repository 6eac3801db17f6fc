"""One-dimensional vector statistics.

Conventions used throughout the package:

* all moments are population moments (divisor ``n``, no Bessel correction);
* reductions go through numpy, whose pairwise summation keeps the identity
  suite stable at 1e-10 relative tolerance for vectors up to ``10**6``
  elements;
* ``sign(0) == 0``, which keeps downstream closed forms defined at zero
  correlation.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionMismatchError, InvalidInputError, UndefinedValueError

__all__ = [
    "as_vector",
    "lp_mean",
    "mad",
    "mean",
    "pearson",
    "sign",
    "std",
    "variance",
]

# Absolute tolerance of the one-dimensional minimization behind lp_mean.
LP_MEAN_TOLERANCE = 1e-10


def as_vector(values) -> np.ndarray:
    """Validate *values* as a finite 1-D float vector and return a read-only copy.

    Raises:
        InvalidInputError: empty input, wrong dimensionality, or non-finite
            elements.
    """
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise InvalidInputError("vector must contain at least one element")
    if not np.isfinite(arr).all():
        raise InvalidInputError("vector elements must be finite")
    arr.setflags(write=False)
    return arr


# Moment kernels on validated vectors.  np.add.reduce is the reduction
# behind np.sum and np.mean, without their dispatch, so the kernels keep
# those formulas' results bit for bit.  The variance and mad kernels take
# the mean as an argument, so a caller that needs several moments takes it
# once.
_add = np.add.reduce


def _constant(arr: np.ndarray) -> bool:
    """True when every element equals the first one (exact comparison)."""
    # count_nonzero skips the dispatch cost of any() on short vectors.
    return not np.count_nonzero(arr != arr[0])


def _ssq(v: np.ndarray) -> float:
    """Sum of squares."""
    return float(_add(np.square(v)))


def _mean(arr: np.ndarray) -> float:
    return float(_add(arr)) / arr.size


def _variance(arr: np.ndarray, mu: float) -> float:
    # Centered two-pass form; equals (||x||^2 - n*mu^2)/n without the
    # cancellation. Clamped so rounding can never leave a negative value.
    return max(0.0, _ssq(arr - mu) / arr.size)


def _mad(arr: np.ndarray, mu: float) -> float:
    return float(_add(np.abs(mu - arr))) / arr.size


def mean(x) -> float:
    """Arithmetic mean."""
    return _mean(as_vector(x))


def mad(x) -> float:
    """Mean absolute deviation from the mean."""
    arr = as_vector(x)
    return _mad(arr, _mean(arr))


def variance(x) -> float:
    """Population variance (divisor ``n``)."""
    arr = as_vector(x)
    return _variance(arr, _mean(arr))


def std(x) -> float:
    """Population standard deviation, sqrt of :func:`variance`."""
    return math.sqrt(variance(x))


def _centred_sums(xv: np.ndarray, yv: np.ndarray) -> tuple[float, float, float, float, float]:
    """Means of two validated vectors and their centred sums ``sxx``, ``syy``, ``sxy``."""
    mx, my = _mean(xv), _mean(yv)
    xc = xv - mx
    yc = yv - my
    return mx, my, float(np.dot(xc, xc)), float(np.dot(yc, yc)), float(np.dot(xc, yc))


def _correlation(sums: tuple[float, float, float, float, float]) -> float:
    """Pearson correlation from :func:`_centred_sums`; raises as :func:`pearson` does."""
    _, _, sxx, syy, sxy = sums
    nx = math.sqrt(sxx)
    ny = math.sqrt(syy)
    if not (math.isfinite(nx) and math.isfinite(ny)):
        raise InvalidInputError("correlation overflows: a centered norm is not finite")
    if nx == 0.0 or ny == 0.0:
        raise UndefinedValueError("correlation is undefined for a constant vector")
    return min(1.0, max(-1.0, sxy / (nx * ny)))


def pearson(x, y) -> float:
    """Pearson correlation of two non-constant, equal-length vectors.

    Raises:
        InvalidInputError: a centered norm overflows.
        UndefinedValueError: if either vector is constant.
    """
    xv = as_vector(x)
    yv = as_vector(y)
    if xv.size != yv.size:
        raise DimensionMismatchError(
            f"correlation needs equal lengths, got {xv.size} and {yv.size}"
        )
    return _correlation(_centred_sums(xv, yv))


def lp_mean(y, p) -> float:
    """Minimizer of ``sum(|y_i - theta|**p)`` over theta.

    ``p = 1`` returns the median (midpoint of the two central order
    statistics for even ``n``), ``p = 2`` the mean, and ``p = inf`` the
    midrange.  Other ``p > 1`` are solved by driving the monotone
    derivative of the objective to zero (Illinois false position with a
    bisection fallback) to absolute tolerance ``LP_MEAN_TOLERANCE``.
    """
    arr = as_vector(y)
    p = float(p)
    if not p >= 1.0:
        raise InvalidInputError(f"lp_mean requires p >= 1, got {p}")
    if p == 1.0:
        return float(np.median(arr))
    if p == 2.0:
        return _mean(arr)
    lo = float(np.min(arr))
    hi = float(np.max(arr))
    if lo == hi:
        return lo
    if math.isinf(p):
        return 0.5 * (lo + hi)

    expo = p - 1.0

    def grad(theta: float) -> float:
        d = theta - arr
        return float(_add(np.copysign(np.abs(d) ** expo, d)))

    g_lo = grad(lo)
    g_hi = grad(hi)
    if g_lo >= 0.0:
        return lo
    if g_hi <= 0.0:
        return hi
    side = 0
    for _ in range(200):
        if hi - lo <= LP_MEAN_TOLERANCE:
            break
        mid = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        g_mid = grad(mid)
        if g_mid > 0.0:
            hi, g_hi = mid, g_mid
            if side == 1:
                g_lo *= 0.5
            side = 1
        elif g_mid < 0.0:
            lo, g_lo = mid, g_mid
            if side == -1:
                g_hi *= 0.5
            side = -1
        else:
            return mid
    return 0.5 * (lo + hi)


def sign(value) -> float:
    """Scalar sign with ``sign(0) = 0``."""
    if value > 0:
        return 1.0
    if value < 0:
        return -1.0
    return 0.0
