"""Independent reference for checking the program's outputs.

Written from the generator and bucket-model specification in the
project README and from the paper's loss definitions. It imports
nothing from the program, so a fault shared by the two cannot hide.

Scalar recurrences (the generator, the samplers, the bucket store) are
plain Python floats; vector formulas use numpy.  Raw draws must match
the program exactly; floats match within ``REL_TOL`` because numpy and
``math`` may round the last bit differently.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-12

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4B7C15


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# Generator: splitmix64 counter stream and the samplers built on it.
# ---------------------------------------------------------------------------


def mix64(v: int) -> int:
    v &= _MASK
    v ^= v >> 30
    v = (v * 0xBF58476D1CE4E5B9) & _MASK
    v ^= v >> 27
    v = (v * 0x94D049BB133111EB) & _MASK
    return v ^ (v >> 31)


class Stream:
    """The k-th raw draw is ``mix64(base + k * golden)``, k = 1, 2, ..."""

    def __init__(self, seed: int, stream_id: int = 0):
        self.base = mix64(seed) ^ mix64(stream_id ^ _GOLDEN)
        self.k = 0

    def raw(self) -> int:
        self.k += 1
        return mix64((self.base + self.k * _GOLDEN) & _MASK)

    def uniform(self) -> float:
        return ((self.raw() >> 11) + 1) * 2.0**-53

    def gaussian(self) -> float:
        # Box-Muller, cosine branch; the sine branch is discarded.
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gaussians(self, n: int) -> list[float]:
        return [self.gaussian() for _ in range(n)]

    def lognormals(self, n: int, mu: float, sigma: float) -> list[float]:
        return [math.exp(mu + sigma * g) for g in self.gaussians(n)]

    def gamma(self, shape: float, scale: float) -> float:
        """Marsaglia-Tsang (2000); shape < 1 boosts a gamma(shape + 1) draw."""
        if shape < 1.0:
            g = self._gamma_at_least_one(shape + 1.0)
            return scale * g * self.uniform() ** (1.0 / shape)
        return scale * self._gamma_at_least_one(shape)

    def _gamma_at_least_one(self, shape: float) -> float:
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.gaussian()
            t = 1.0 + c * x
            if t <= 0.0:
                continue
            v = t * t * t
            u = self.uniform()
            if u < 1.0 - 0.0331 * x**4:
                return d * v
            if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v


# The paper's linear-experiment design: y = 2.1 + a1 x + eps with
# x ~ Gamma(scale 1.8, shape 0.4) and eps ~ Lognormal(0, 2), predictor
# draws first on the stream, then the noise draws.
LINEAR_INTERCEPT = 2.1
LINEAR_GAMMA = {"kind": "gamma", "scale": 1.8, "shape": 0.4}
LINEAR_NOISE = {"kind": "lognormal", "mu": 0.0, "sigma": 2.0}


def linear_draws(seed: int, n: int):
    """Predictor and noise draws of the linear experiment, on stream 0."""
    s = Stream(seed)
    x = [s.gamma(LINEAR_GAMMA["shape"], LINEAR_GAMMA["scale"]) for _ in range(n)]
    eps = s.lognormals(n, LINEAR_NOISE["mu"], LINEAR_NOISE["sigma"])
    return np.array(x), np.array(eps)


def gaussian_draws(seed: int, n: int, mu: float, sigma: float):
    s = Stream(seed)
    return np.array([mu + sigma * g for g in s.gaussians(n)])


# ---------------------------------------------------------------------------
# Bucket model.
# ---------------------------------------------------------------------------


def bucket_flow(capacity: float, recession: float, split: float, precip, pet, store: float):
    """Daily flow of the single-store model, in the README's update order."""
    flow = []
    for p, e in zip(precip, pet):
        direct = split * p
        store += (1.0 - split) * p
        evap = min(e * min(1.0, store / capacity), store)
        store -= evap
        spill = store - capacity if store > capacity else 0.0
        store -= spill
        base = recession * store
        store -= base
        flow.append(direct + spill + base)
    return flow


# ---------------------------------------------------------------------------
# The paper's metrics on a prediction vector z and observations y.
# ---------------------------------------------------------------------------


def _vec(v) -> np.ndarray:
    return np.asarray(v, dtype=float)


def mse(z, y) -> float:
    d = _vec(z) - _vec(y)
    return float(np.sum(d * d) / d.size)


def nse(z, y) -> float:
    y = _vec(y)
    c = y - np.sum(y) / y.size
    return 1.0 - mse(z, y) / float(np.sum(c * c) / y.size)


def vbar_mean(z, y) -> float:
    return float(np.sum(_vec(z) - _vec(y)) / len(y))


def l_w(z, y) -> float:
    return l_kbb(z, y, 2.0)


def l_nr2(z, y) -> float:
    z, y = _vec(z), _vec(y)
    mu = float(np.sum(y)) / y.size
    num = float(np.sum((z - y) ** 2))
    a = math.sqrt(float(np.sum((z - mu) ** 2)))
    b = math.sqrt(float(np.sum((mu - y) ** 2)))
    return num / (a + b) ** 2


def l_kbb(z, y, p: float) -> float:
    """sum |z - y|^p / sum (|z - mu| + |mu - y|)^p."""
    z, y = _vec(z), _vec(y)
    mu = float(np.sum(y)) / y.size
    num = float(np.sum(np.abs(z - y) ** p))
    den = float(np.sum((np.abs(z - mu) + np.abs(mu - y)) ** p))
    return num / den


def l_nrp(z, y, p: float) -> float:
    """||z - y||_p^p / (||z - m||_p + ||m - y||_p)^p with m the L_p mean of y."""
    z, y = _vec(z), _vec(y)
    m = lp_mean(y, p)
    num = float(np.sum(np.abs(z - y) ** p))
    a = float(np.sum(np.abs(z - m) ** p)) ** (1.0 / p)
    b = float(np.sum(np.abs(m - y) ** p)) ** (1.0 / p)
    return num / (a + b) ** p


def l_lmc(z, y, f: float) -> float:
    z, y = _vec(z), _vec(y)
    return float(np.sum(np.abs(z - y))) / float(np.sum(np.abs(z - f)) + np.sum(np.abs(f - y)))


def median(y) -> float:
    s = np.sort(_vec(y))
    n = s.size
    return float(s[n // 2]) if n % 2 else 0.5 * (float(s[n // 2 - 1]) + float(s[n // 2]))


def lp_mean(y, p: float) -> float:
    """argmin over theta of sum |y - theta|^p.

    p = 1 is the median and p = 2 the mean.  Otherwise the derivative
    g(theta) = sum sign(theta - y) |theta - y|^(p-1) is increasing, and
    its root is found by Newton steps kept inside a shrinking bracket,
    falling back to bisection when a step leaves it.
    """
    y = _vec(y)
    if p == 1.0:
        return median(y)
    if p == 2.0:
        return float(np.sum(y)) / y.size
    lo, hi = float(np.min(y)), float(np.max(y))
    if lo == hi:
        return lo
    theta = 0.5 * (lo + hi)
    for _ in range(200):
        d = theta - y
        a = np.abs(d)
        g = float(np.sum(np.sign(d) * a ** (p - 1.0)))
        if g == 0.0:
            return theta
        if g > 0.0:
            hi = theta
        else:
            lo = theta
        if hi - lo <= 1e-13 * max(1.0, abs(theta)):
            break
        with np.errstate(divide="ignore"):
            slope = (p - 1.0) * float(np.sum(a ** (p - 2.0)))
        step = theta - g / slope if math.isfinite(slope) and slope > 0.0 else math.nan
        theta = step if lo < step < hi else 0.5 * (lo + hi)
    return theta


def metric(spec: str, z, y) -> float:
    """Value of one ``agreeloss metrics`` spec, recomputed from its definition."""
    base, _, param = spec.partition(":")
    if base == "mse":
        return mse(z, y)
    if base == "nse":
        return nse(z, y)
    if base == "lw":
        return l_w(z, y)
    if base == "lnr2":
        return l_nr2(z, y)
    if base == "vbar_mean":
        return vbar_mean(z, y)
    if base == "kbb":
        return l_kbb(z, y, float(param[2:]))
    if base == "nrp":
        return l_nrp(z, y, float(param[2:]))
    if base == "lmc":
        f = median(y) if param == "f=median" else float(np.sum(_vec(y))) / len(y)
        return l_lmc(z, y, f)
    raise KeyError(spec)


# ---------------------------------------------------------------------------
# Estimators with closed forms.
# ---------------------------------------------------------------------------


def moments(y):
    """Population mean, standard deviation and mean absolute deviation."""
    y = _vec(y)
    mu = float(np.sum(y)) / y.size
    c = y - mu
    return mu, math.sqrt(float(np.sum(c * c)) / y.size), float(np.sum(np.abs(c))) / y.size


def ols(x, y):
    x, y = _vec(x), _vec(y)
    xc = x - np.sum(x) / x.size
    yc = y - np.sum(y) / y.size
    slope = float(np.sum(xc * yc) / np.sum(xc * xc))
    return slope, float(np.sum(y) / y.size - slope * np.sum(x) / x.size)


def correlation(x, y) -> float:
    x, y = _vec(x), _vec(y)
    xc = x - np.sum(x) / x.size
    yc = y - np.sum(y) / y.size
    return float(np.sum(xc * yc) / math.sqrt(float(np.sum(xc * xc)) * float(np.sum(yc * yc))))


def nr2_linear(x, y):
    """Norm-ratio fit: slope sign(rho) ||y_c|| / ||x_c||, minimum (1 - |rho|)/2."""
    x, y = _vec(x), _vec(y)
    rho = correlation(x, y)
    xc = x - np.sum(x) / x.size
    yc = y - np.sum(y) / y.size
    slope = math.copysign(math.sqrt(float(np.sum(yc * yc)) / float(np.sum(xc * xc))), rho)
    intercept = float(np.sum(y) / y.size - slope * np.sum(x) / x.size)
    return slope, intercept, (1.0 - abs(rho)) / 2.0
