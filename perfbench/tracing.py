"""Tracing from outside the program, for the per-layer metrics.

Counts and spans come from wrappers put on public names that callers
look up at call time (``hydro.run_bucket``, ``hydro.minimize``,
``simulate.sample``, ``Rng.raw``, ``cli.render`` ...).  ``minimize``'s
objective argument is wrapped too.  The wrappers are installed only
in the workers of traced rounds, so untraced rounds run the program
untouched.

Per-call costs come from timing the modules' public functions, with the
wrappers removed, on arguments captured from the workload's own calls.

A name that a later version of the program no longer has is skipped, and
the metrics that need it are left out of the report; the run goes on.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import Counter

# Every per-layer metric, with its unit, in report order.
PER_LAYER = {
    "hydro.bucket_runs": "count",
    "hydro.simulated_days": "count",
    "hydro.bucket_ns_per_day": "ns",
    "hydro.bucket_s": "s",
    "hydro.load_csv_s": "s",
    "estimators.minimize_calls": "count",
    "estimators.evaluations": "count",
    "estimators.iterations": "count",
    "estimators.inf_evaluations": "count",
    "estimators.overhead_us_per_eval": "us",
    "estimators.fit_linear_lw_s": "s",
    "estimators.profile_us_per_call": "us",
    "simulate.raw_draws": "count",
    "simulate.gamma_ns_per_draw": "ns",
    "simulate.lognormal_ns_per_draw": "ns",
    "simulate.sample_s": "s",
    "losses.l_w_us": "us",
    "losses.l_nr2_us": "us",
    "losses.series_pair_us": "us",
    "losses.nrp_ms": "ms",
    "vector_stats.as_vector_us": "us",
    "vector_stats.lp_mean_ms": "ms",
    "cli.self_s": "s",
    "cli.render_s": "s",
    "trace.overhead_ratio": "s/s",
}


class Tracer:
    """Spans and counts of the traced rounds, kept in memory."""

    def __init__(self, modules: dict):
        self.m = modules  # short module name -> module object
        self.spans: list = []  # [id, parent id, name, start, end]
        self.counts: Counter = Counter()
        self.samples: dict = {}  # capture name -> {length: first argument seen}
        self.lengths: dict = {}  # capture name -> Counter of lengths
        self.first: dict = {}  # capture name -> first arguments seen
        self.missing: set = set()
        self._stack: list = []
        self._restore: list = []

    # -- spans ---------------------------------------------------------
    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _capture(self, name: str, length: int, value) -> None:
        self.lengths.setdefault(name, Counter())[length] += 1
        self.samples.setdefault(name, {}).setdefault(length, value)

    # -- wrappers ------------------------------------------------------
    def _patch(self, module: str, attr: str, make) -> None:
        owner = self.m.get(module)
        for part in attr.split(".")[:-1]:
            owner = getattr(owner, part, None)
        leaf = attr.split(".")[-1]
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            self.missing.add(f"{module}.{attr}")
            return
        setattr(owner, leaf, functools.update_wrapper(make(original), original, updated=()))
        self._restore.append((owner, leaf, original))

    def _spanned(self, name: str, count: str | None = None, on_call=None):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if count:
                    tracer.counts[count] += 1
                if on_call is not None:
                    on_call(args, kwargs)
                sid = tracer.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(sid)

            return wrapper

        return make

    def _counted(self, on_call):
        def make(fn):
            def wrapper(*args, **kwargs):
                on_call(args, kwargs)
                return fn(*args, **kwargs)

            return wrapper

        return make

    def install(self) -> None:
        tracer = self

        def bucket_call(args, kwargs):
            precip = kwargs.get("precip", args[1] if len(args) > 1 else None)
            tracer.counts["bucket_days"] += len(precip)
            tracer.first.setdefault("run_bucket", (args, kwargs))

        def objective_wrapper(objective):
            def traced_objective(point):
                tracer.counts["evaluations"] += 1
                sid = tracer.begin("estimators.objective")
                try:
                    value = objective(point)
                finally:
                    tracer.end(sid)
                if not math.isfinite(float(value)):
                    tracer.counts["inf_evaluations"] += 1
                return value

            return traced_objective

        def make_minimize(fn):
            def wrapper(objective, *args, **kwargs):
                tracer.counts["minimize_calls"] += 1
                sid = tracer.begin("estimators.minimize")
                try:
                    result = fn(objective_wrapper(objective), *args, **kwargs)
                finally:
                    tracer.end(sid)
                tracer.counts["iterations"] += getattr(result, "iterations", 0)
                return result

            return wrapper

        def pair_call(args, kwargs):
            z = kwargs.get("z", args[0] if args else None)
            y = kwargs.get("y", args[1] if len(args) > 1 else None)
            tracer._capture("SeriesPair", len(z), (z, y))

        def vector_call(args, kwargs):
            values = kwargs.get("values", args[0] if args else None)
            try:
                tracer._capture("as_vector", len(values), values)
            except TypeError:
                pass

        def lp_mean_call(args, kwargs):
            if float(args[1]) == 1.5:
                tracer.first.setdefault("lp_mean", (args[0], 1.5))

        def sample_call(args, kwargs):
            spec, n, rng = args[0], args[1], args[2]
            kind = type(spec).__name__
            tracer.first.setdefault(f"sample.{kind}", (spec, n, rng.seed, rng.stream_id))

        def raw_call(args, kwargs):
            tracer.counts["raw_draws"] += int(args[1])

        def profile_call(args, kwargs):
            tracer.first.setdefault("profile", (args, kwargs))

        span = self._spanned
        for module in ("hydro", "estimators"):
            self._patch(module, "minimize", make_minimize)
        self._patch("hydro", "run_bucket", span("hydro.run_bucket", "bucket_runs", bucket_call))
        self._patch("hydro", "calibrate", span("hydro.calibrate", "calibrate_calls"))
        self._patch("cli", "run_calibration", span("hydro.run_calibration"))
        self._patch("cli", "load_csv", span("hydro.load_csv"))
        self._patch("cli", "render", span("cli.render"))
        self._patch("cli", "SeriesPair", span("losses.SeriesPair", None, pair_call))
        for module in ("hydro", "estimators", "simulate"):
            self._patch(module, "SeriesPair", self._counted(pair_call))
        for module in ("losses", "estimators", "vector_stats"):
            self._patch(module, "as_vector", self._counted(vector_call))
        self._patch("losses", "lp_mean", self._counted(lp_mean_call))
        for name in ("l_kbb", "l_lmc_mean", "l_lmc_median"):
            self._patch("cli", name, span(f"losses.{name}"))
        self._patch("cli", "l_nrp", span("losses.l_nrp", "l_nrp"))
        for name in ("fit_constant_lw", "fit_constant_lnr2"):
            self._patch("cli", name, span(f"estimators.{name}"))
        for name in ("lw_constant_profile", "lnr2_constant_profile"):
            self._patch("cli", name, span(f"estimators.{name}", None, profile_call))
        for name in ("run_linear_experiment", "run_climatology_experiment"):
            self._patch("cli", name, span(f"simulate.{name}"))
        for name in ("fit_linear_ols", "fit_linear_lnr2", "fit_linear_lw"):
            self._patch("simulate", name, span(f"estimators.{name}"))
        self._patch("simulate", "sample", span("simulate.sample", None, sample_call))
        self._patch("simulate", "Rng.raw", self._counted(raw_call))
        # cli keeps the plain metrics in a table built at import, so their
        # spans come from wrapping the table's entries.
        table = getattr(self.m["cli"], "_SIMPLE_METRICS", None)
        if isinstance(table, dict):
            saved = dict(table)
            for key, (fn, orientation) in saved.items():
                table[key] = (span(f"losses.{key}")(fn), orientation)
            self._restore.append((table, None, saved))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            if leaf is None:
                owner.update(original)
            else:
                setattr(owner, leaf, original)
        self._restore.clear()

    # -- report --------------------------------------------------------
    def modal(self, name: str):
        lengths = self.lengths.get(name)
        if not lengths:
            return None
        length = max(lengths, key=lambda n: (lengths[n], n))
        return self.samples[name][length]

    def layer_metrics(self, budget_s: float) -> dict:
        """Per-layer metrics per traced operation, plus per-call costs.

        ``trace.overhead_ratio`` compares traced and untraced rounds, so the
        caller, which sees both, adds it.
        """
        ops = [s for s in self.spans if s[1] is None]
        n_ops = len(ops)

        def per_op(value: float) -> float:
            return value / n_ops

        def total(name: str) -> float:
            return sum(s[4] - s[3] for s in self.spans if s[2] == name)

        out = {}
        c = self.counts
        out["hydro.bucket_runs"] = per_op(c["bucket_runs"])
        out["hydro.simulated_days"] = per_op(c["bucket_days"])
        out["hydro.bucket_s"] = per_op(total("hydro.run_bucket"))
        out["hydro.load_csv_s"] = per_op(total("hydro.load_csv"))
        out["estimators.minimize_calls"] = per_op(c["minimize_calls"])
        out["estimators.evaluations"] = per_op(c["evaluations"])
        out["estimators.iterations"] = per_op(c["iterations"])
        out["estimators.inf_evaluations"] = per_op(c["inf_evaluations"])
        outside = total("estimators.minimize") - total("estimators.objective")
        out["estimators.overhead_us_per_eval"] = 1e6 * outside / c["evaluations"] if c["evaluations"] else 0.0
        out["estimators.fit_linear_lw_s"] = per_op(total("estimators.fit_linear_lw"))
        out["simulate.raw_draws"] = per_op(c["raw_draws"])
        out["simulate.sample_s"] = per_op(total("simulate.sample"))
        children = {s[0]: 0.0 for s in ops}
        for s in self.spans:
            if s[1] in children:
                children[s[1]] += s[4] - s[3]
        out["cli.self_s"] = per_op(sum(s[4] - s[3] - children[s[0]] for s in ops))
        out["cli.render_s"] = per_op(total("cli.render"))
        out.update(self._per_call_costs(budget_s))
        absent = self.missing_metrics()
        # A layer the workload never called reports 0.
        return {name: out.get(name, 0.0) for name in PER_LAYER if name not in absent and name != "trace.overhead_ratio"}

    def missing_metrics(self) -> set:
        needs = {
            "hydro.run_bucket": ("hydro.bucket_runs", "hydro.simulated_days", "hydro.bucket_s", "hydro.bucket_ns_per_day"),
            "cli.load_csv": ("hydro.load_csv_s",),
            "hydro.minimize": ("estimators.minimize_calls", "estimators.evaluations", "estimators.iterations",
                               "estimators.inf_evaluations", "estimators.overhead_us_per_eval"),
            "simulate.fit_linear_lw": ("estimators.fit_linear_lw_s",),
            "simulate.sample": ("simulate.sample_s", "simulate.gamma_ns_per_draw", "simulate.lognormal_ns_per_draw"),
            "simulate.Rng.raw": ("simulate.raw_draws",),
            "cli.render": ("cli.render_s",),
            "losses.lp_mean": ("vector_stats.lp_mean_ms",),
        }
        return {metric for name in self.missing for metric in needs.get(name, (name,))}

    def _per_call_costs(self, budget_s: float) -> dict:
        """Median cost of one call of each public function on captured inputs.

        A function the program no longer has is recorded as missing.
        """
        m = self.m
        jobs = {}
        if "run_bucket" in self.first:
            args, kwargs = self.first["run_bucket"]
            days = len(kwargs.get("precip", args[1] if len(args) > 1 else None))
            jobs["hydro.bucket_ns_per_day"] = (1e9 / days, lambda: m["hydro"].run_bucket(*args, **kwargs))
        if "profile" in self.first:
            args, kwargs = self.first["profile"]
            jobs["estimators.profile_us_per_call"] = (1e6, lambda: m["estimators"].lw_constant_profile(*args, **kwargs))
        for kind in ("Gamma", "Lognormal"):
            key = f"sample.{kind}"
            if key in self.first:
                spec, n, seed, stream = self.first[key]
                jobs[f"simulate.{kind.lower()}_ns_per_draw"] = (
                    1e9 / n,
                    lambda spec=spec, n=n, seed=seed, stream=stream: m["simulate"].sample(
                        spec, n, m["simulate"].Rng(seed, stream)
                    ),
                )
        pair = self.modal("SeriesPair")
        losses = m["losses"]
        if pair is not None:
            z, y = pair
            built = losses.SeriesPair(z, y)
            for name, scale, call in (
                ("losses.l_w_us", 1e6, lambda: losses.l_w(built)),
                ("losses.l_nr2_us", 1e6, lambda: losses.l_nr2(built)),
                ("losses.series_pair_us", 1e6, lambda: losses.SeriesPair(z, y)),
            ):
                jobs[name] = (scale, call)
            if self.counts["l_nrp"]:
                jobs["losses.nrp_ms"] = (1e3, lambda: losses.l_nrp(built, 1.5))
        vector = self.modal("as_vector")
        if vector is not None:
            jobs["vector_stats.as_vector_us"] = (1e6, lambda: m["vector_stats"].as_vector(vector))
        if "lp_mean" in self.first:
            y, p = self.first["lp_mean"]
            jobs["vector_stats.lp_mean_ms"] = (1e3, lambda: m["vector_stats"].lp_mean(y, p))
        share = budget_s / max(1, len(jobs))
        out = {}
        for name, (scale, call) in jobs.items():
            try:
                out[name] = scale * _median_call(call, share)
            except AttributeError:
                self.missing.add(name)
        return out

    def span_records(self) -> list:
        t0 = self.spans[0][3] if self.spans else 0.0
        return [[sid, parent, name, round(a - t0, 9), round(b - t0, 9)] for sid, parent, name, a, b in self.spans]


def _median_call(call, budget_s: float, min_calls: int = 3) -> float:
    """Median wall time of one call, repeating for about ``budget_s`` seconds."""
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_calls or time.perf_counter() < deadline:
        t = time.perf_counter()
        call()
        times.append(time.perf_counter() - t)
    return statistics.median(times)
