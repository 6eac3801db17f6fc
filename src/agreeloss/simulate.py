"""Seeded random-variate generation and the simulation experiments.

Generator specification (byte-for-byte, so independent implementations can
reproduce every experiment):

* ``mix64`` is the splitmix64 finalizer on 64-bit unsigned integers::

      v ^= v >> 30;  v *= 0xBF58476D1CE4E5B9
      v ^= v >> 27;  v *= 0x94D049BB133111EB
      v ^= v >> 31

* the stream base is
  ``base = mix64(seed) XOR mix64(stream_id XOR 0x9E3779B97F4B7C15)``;
* the k-th raw draw (k = 1, 2, ...) is
  ``mix64((base + k * 0x9E3779B97F4B7C15) mod 2**64)``;
* a uniform draw maps the top 53 bits into (0, 1]:
  ``((raw >> 11) + 1) * 2**-53``;
* every Gaussian draw consumes exactly two uniforms ``u1, u2`` and returns
  the Box-Muller cosine branch ``sqrt(-2 ln u1) * cos(2 pi u2)`` (the sine
  branch is discarded);
* a lognormal draw is ``exp(mu + sigma * gaussian)``;
* gamma draws use Marsaglia-Tsang squeeze rejection for shape >= 1: a
  proposal takes one Gaussian ``x``, then one uniform unless ``1 + c x <= 0``
  rejects it first; for shape < 1 the draw is ``gamma(shape + 1)``, then
  one boost uniform ``u``, returning ``gamma * u**(1/shape)``.  Uniforms
  are drawn in blocks but consumed in exactly this sequence.

All experiment outputs are pure functions of ``(seed, stream_id,
parameters)``: two runs with identical inputs produce bit-identical
reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import fit_linear_lnr2, fit_linear_lw, fit_linear_ols
from .exceptions import InvalidInputError, UndefinedValueError
from .losses import SeriesPair, score
from .vector_stats import mean, pearson, std

__all__ = [
    "ExperimentReport",
    "Gamma",
    "Gaussian",
    "Lognormal",
    "Rng",
    "run_climatology_experiment",
    "run_linear_experiment",
    "sample",
]

_MASK = (1 << 64) - 1
_GAMMA_STEP = 0x9E3779B97F4B7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_STREAM_SALT = 0x9E3779B97F4B7C15
_INV_2_53 = 2.0**-53


def mix64(value: int) -> int:
    """splitmix64 finalizer on a 64-bit unsigned integer."""
    v = value & _MASK
    v = ((v ^ (v >> 30)) * _MIX_1) & _MASK
    v = ((v ^ (v >> 27)) * _MIX_2) & _MASK
    return v ^ (v >> 31)


class Rng:
    """Deterministic counter-based 64-bit generator (splitmix64 stream).

    Identical ``(seed, stream_id)`` produce identical draw sequences on
    every platform.  Distinct stream ids give statistically independent
    streams for the same seed.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        for name, value in (("seed", seed), ("stream_id", stream_id)):
            if not isinstance(value, int) or not 0 <= value <= _MASK:
                raise InvalidInputError(f"{name} must be a 64-bit unsigned integer")
        self.seed = seed
        self.stream_id = stream_id
        self._base = mix64(seed) ^ mix64(stream_id ^ _STREAM_SALT)
        self._count = 0

    def raw(self, n: int) -> np.ndarray:
        """Next *n* raw 64-bit draws (vectorized counter evaluation)."""
        if n < 0:
            raise InvalidInputError("draw count must be non-negative")
        index = np.arange(1, n + 1, dtype=np.uint64) + np.uint64(self._count)
        self._count += n
        v = np.uint64(self._base) + index * np.uint64(_GAMMA_STEP)
        v = (v ^ (v >> np.uint64(30))) * np.uint64(_MIX_1)
        v = (v ^ (v >> np.uint64(27))) * np.uint64(_MIX_2)
        return v ^ (v >> np.uint64(31))

    def uniforms(self, n: int) -> np.ndarray:
        """Next *n* uniforms in (0, 1]."""
        bits = (self.raw(n) >> np.uint64(11)).astype(np.float64)
        return (bits + 1.0) * _INV_2_53

    def normals(self, n: int) -> np.ndarray:
        """Next *n* standard Gaussians; consumes exactly ``2 n`` uniforms."""
        u = self.uniforms(2 * n)
        radius = np.sqrt(-2.0 * np.log(u[0::2]))
        return radius * np.cos(2.0 * math.pi * u[1::2])


@dataclass(frozen=True)
class _LocationScale:
    """A distribution family with a finite location mu and finite scale sigma > 0."""

    mu: float
    sigma: float

    def __post_init__(self):
        for name, value in (("mu", self.mu), ("sigma", self.sigma)):
            if not math.isfinite(value):
                raise InvalidInputError(f"{self.kind} {name} must be finite, got {value!r}")
        if not self.sigma > 0.0:
            raise InvalidInputError(f"{self.kind} sigma must be positive")

    def describe(self) -> dict:
        return {"kind": self.kind, "mu": self.mu, "sigma": self.sigma}


class Gaussian(_LocationScale):
    kind = "gaussian"


class Lognormal(_LocationScale):
    kind = "lognormal"


@dataclass(frozen=True)
class Gamma:
    """Gamma distribution parametrized by (scale, shape); mean = scale * shape."""

    scale: float
    shape: float

    def __post_init__(self):
        if not (self.scale > 0.0 and self.shape > 0.0):
            raise InvalidInputError("gamma scale and shape must be positive")

    def describe(self) -> dict:
        return {"kind": "gamma", "scale": self.scale, "shape": self.shape}


DistributionSpec = Gaussian | Gamma | Lognormal


def sample(spec: DistributionSpec, n: int, rng: Rng) -> np.ndarray:
    """Draw *n* IID variates from *spec* using *rng*."""
    if n < 1:
        raise InvalidInputError("sample size must be at least 1")
    with np.errstate(over="ignore"):
        if isinstance(spec, Gaussian):
            draws = spec.mu + spec.sigma * rng.normals(n)
        elif isinstance(spec, Lognormal):
            draws = np.exp(spec.mu + spec.sigma * rng.normals(n))
        elif isinstance(spec, Gamma):
            draws = _gammas(spec, n, rng)
        else:
            raise InvalidInputError(f"unsupported distribution spec: {spec!r}")
    if not np.isfinite(draws).all():
        raise InvalidInputError(f"draws from {spec!r} overflow")
    return draws


def _gammas(spec: Gamma, n: int, rng: Rng) -> np.ndarray:
    """*n* Marsaglia-Tsang gamma draws, taking exactly the specified uniforms.

    Every draw still owed takes at least ``least`` uniforms, so a block of
    ``least * owed`` never holds one that goes unused; a proposal the block
    cannot finish is carried into the next.  Box-Muller on every adjacent
    pair, with ``Rng.normals``' expression, lets a Gaussian start anywhere.
    """
    shape, scale = spec.shape, spec.scale
    boosted = shape < 1.0
    d = (shape + 1.0 if boosted else shape) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    least = 4 if boosted else 3  # two for the normal, one squeeze, one boost
    out: list[float] = []
    tail = np.empty(0)
    while len(out) < n:
        u = np.concatenate((tail, rng.uniforms(least * (n - len(out)) - tail.size)))
        gauss = (np.sqrt(-2.0 * np.log(u[:-1])) * np.cos(2.0 * math.pi * u[1:])).tolist()
        uniforms = u.tolist()
        i = 0  # first uniform of the current proposal
        while i + 1 < len(uniforms):
            x = gauss[i]
            t = 1.0 + c * x
            if t <= 0.0:
                i += 2
                continue
            if i + least > len(uniforms):
                break
            v = t * t * t
            w = uniforms[i + 2]
            x2 = x * x
            if w < 1.0 - 0.0331 * x2 * x2 or math.log(w) < 0.5 * x2 + d * (1.0 - v + math.log(v)):
                value = scale * (d * v)
                out.append(value * uniforms[i + 3] ** (1.0 / shape) if boosted else value)
                i += least
            else:
                i += 3
        tail = u[i:]
    return np.array(out)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-model metric rows plus run metadata; ``cli.render`` formats them."""

    metadata: dict
    columns: tuple[str, ...]
    models: tuple[dict, ...]

    def __post_init__(self):
        for row in self.models:
            missing = [c for c in self.columns if c not in row]
            if missing:
                raise InvalidInputError(f"model row is missing columns {missing}")

    def row(self, name: str) -> dict:
        for row in self.models:
            if row["model"] == name:
                return row
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"metadata": dict(self.metadata), "models": [dict(m) for m in self.models]}


def _finite_std(what: str, values: np.ndarray) -> float:
    """Population std of *values*, raising by name when it overflows."""
    sd = std(values) if np.isfinite(values).all() else math.inf
    if not math.isfinite(sd):
        raise InvalidInputError(f"the standard deviation of {what} overflows")
    return sd


def _split_counts(n_total: int, split: int) -> None:
    if n_total < 2:
        raise InvalidInputError("n_total must be at least 2")
    if not 1 <= split < n_total:
        raise InvalidInputError("split must satisfy 1 <= split < n_total")


_CLIMATOLOGY_SCORES = ("mse", "one_minus_nse", "lnr2", "lw", "vbar_mean")
_CLIMATOLOGY_COLUMNS = ("model", "constant", *_CLIMATOLOGY_SCORES)


def run_climatology_experiment(
    n_total: int, split: int, spec: Gaussian, rng: Rng
) -> ExperimentReport:
    """Constant-prediction experiment on a Gaussian sample.

    Trains the three climatology constants mean, mean - sd, mean + sd on
    the first ``split`` draws and scores them on the remainder with MSE,
    1 - NSE, and both agreement losses.  Under squared error the mean
    constant wins; under the agreement losses the ranking reverses and the
    shifted constants win.
    """
    _split_counts(n_total, split)
    if not isinstance(spec, Gaussian):
        raise InvalidInputError("climatology experiment requires a gaussian spec")
    y = sample(spec, n_total, rng)
    train = y[:split]
    test = y[split:]
    mu = mean(train)
    sd = _finite_std(f"the training draws from {spec!r}", train)
    models = (
        ("model_1", "mean", mu),
        ("model_2", "mean-sd", mu - sd),
        ("model_3", "mean+sd", mu + sd),
    )
    rows = []
    for name, label, constant in models:
        pair = SeriesPair(np.full(test.size, constant), test)
        try:
            scores = score(pair, _CLIMATOLOGY_SCORES)
        except (InvalidInputError, UndefinedValueError) as exc:
            # A sample whose spread underflows or overflows leaves a score
            # undefined or not finite.
            raise InvalidInputError(f"{name} on draws from {spec!r}: {exc}") from None
        rows.append({"model": name, "constant": constant, **scores, "predictor": label})
    metadata = {
        "kind": "climatology",
        "seed": rng.seed,
        "stream_id": rng.stream_id,
        "n_total": n_total,
        "n_train": split,
        "n_test": n_total - split,
        "distribution": spec.describe(),
        "train_mean": mu,
        "train_std": sd,
        "test_std": std(test),
    }
    return ExperimentReport(
        metadata=metadata, columns=_CLIMATOLOGY_COLUMNS, models=tuple(rows)
    )


_LINEAR_SCORES = ("mse", "lnr2", "lw", "vbar_mean")
_LINEAR_COLUMNS = ("model", "slope", "intercept", "method", *_LINEAR_SCORES)

# Fixed design of the linear experiment: intercept 2.1, gamma predictor
# with scale 1.8 / shape 0.4, lognormal(0, 2) noise.
LINEAR_INTERCEPT = 2.1
LINEAR_PREDICTOR = Gamma(scale=1.8, shape=0.4)
LINEAR_NOISE = Lognormal(mu=0.0, sigma=2.0)


def run_linear_experiment(
    a1: float,
    n_total: int,
    split: int,
    rng: Rng,
) -> ExperimentReport:
    """Linear-model experiment with a skewed predictor and skewed noise.

    Generates ``y = 2.1 + a1 * x + eps`` with ``x ~ Gamma(scale 1.8,
    shape 0.4)`` and ``eps ~ Lognormal(0, 2)`` (the predictor draws come
    first on the stream, then the noise draws).  Fits least squares, the
    closed-form norm-ratio estimator, and the numerically minimized
    element-wise estimator on the training split, then scores all three on
    the held-out split.  Each model attains the best test value of its own
    training loss, and the three slopes converge as ``a1`` grows.
    """
    _split_counts(n_total, split)
    if not math.isfinite(a1):
        raise InvalidInputError("slope a1 must be finite")
    x = sample(LINEAR_PREDICTOR, n_total, rng)
    eps = sample(LINEAR_NOISE, n_total, rng)
    y = LINEAR_INTERCEPT + a1 * x + eps

    x_train, x_test = x[:split], x[split:]
    y_train, y_test = y[:split], y[split:]
    _finite_std(f"the training response with a1={a1!r}", y_train)
    test_std_y = _finite_std(f"the test response with a1={a1!r}", y_test)

    fits = (
        ("model_1", fit_linear_ols(x_train, y_train)),
        ("model_2", fit_linear_lnr2(x_train, y_train)),
        ("model_3", fit_linear_lw(x_train, y_train)),
    )
    rows = []
    for name, fit in fits:
        pair = SeriesPair(fit.predict(x_test), y_test)
        try:
            scores = score(pair, _LINEAR_SCORES)
        except InvalidInputError as exc:
            raise InvalidInputError(f"{name} with a1={a1!r}: {exc}") from None
        rows.append(
            {
                "model": name,
                "slope": fit.slope,
                "intercept": fit.intercept,
                "method": fit.method,
                **scores,
            }
        )
    metadata = {
        "kind": "linear",
        "seed": rng.seed,
        "stream_id": rng.stream_id,
        "n_total": n_total,
        "n_train": split,
        "n_test": n_total - split,
        "true_intercept": LINEAR_INTERCEPT,
        "true_slope": a1,
        "predictor": LINEAR_PREDICTOR.describe(),
        "noise": LINEAR_NOISE.describe(),
        "train_correlation": _safe_corr(x_train, y_train),
        "test_std_y": test_std_y,
    }
    return ExperimentReport(metadata=metadata, columns=_LINEAR_COLUMNS, models=tuple(rows))


def _safe_corr(x, y) -> float | None:
    try:
        return pearson(x, y)
    except UndefinedValueError:
        return None
