"""Seeded inputs of the three workloads and the checks of their outputs.

Each workload writes its input files under a run directory and lists its
operations. One operation is one or more ``agreeloss`` command lines that
the worker runs in process, one after the other; a round is one pass over
all operations in order. ``check`` validates the first output of each
operation against ``reference`` and against properties the method must
have, and returns a list of error strings (empty when the output is right).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import reference as ref

AGREEMENT = ("lw", "lnr2", "kbb", "nrp", "lmc")


@dataclass
class Op:
    key: str
    calls: list  # argv lists for agreeloss.cli.main


def _digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _check_envelope(doc: dict, command: str, errors: list) -> None:
    if doc.get("tool") != "agreeloss" or doc.get("command") != command:
        errors.append(f"envelope names tool {doc.get('tool')!r}, command {doc.get('command')!r}")


def _check_close(what: str, got, want, errors: list, rel: float = ref.REL_TOL) -> None:
    if not isinstance(got, (int, float)) or isinstance(got, bool) or not ref.close(got, want, rel):
        errors.append(f"{what}: got {got!r}, reference {want!r}")


def _check_unit(what: str, value, errors: list) -> None:
    if not (isinstance(value, float) and 0.0 <= value <= 1.0):
        errors.append(f"{what}: agreement value {value!r} outside [0, 1]")


def _seeded(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


class Scoring:
    """Three 250,000-row z,y files of skewed, flow-like values, scored by ``metrics``."""

    name = "scoring"
    INPUTS = 3  # files, one operation each
    ROWS = 250_000
    METRICS = "mse,nse,lw,lnr2,kbb:p=2,kbb:p=3,nrp:p=1.5,nrp:p=2,lmc:f=median,vbar_mean"

    def __init__(self, seed: int, workdir: str):
        self.files = {}
        self.ops = []
        for k in range(self.INPUTS):
            rng = _seeded(seed, 1, k)
            base = rng.gamma(0.7, 6.0, self.ROWS)
            # Values are whole thousandths of a millimetre, written with three
            # decimals, so each integer / 1000.0 is exactly the double the file parses to.
            ky = np.rint(1000.0 * base * np.exp(0.1 * rng.standard_normal(self.ROWS))).astype(np.int64)
            kz = np.rint(
                1000.0 * (base * np.exp(0.35 * rng.standard_normal(self.ROWS)) + 0.2 * rng.random(self.ROWS))
            ).astype(np.int64)
            path = os.path.join(workdir, f"pairs{k}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("z,y\n")
                handle.writelines(
                    f"{a // 1000}.{a % 1000:03d},{b // 1000}.{b % 1000:03d}\n"
                    for a, b in zip(kz.tolist(), ky.tolist())
                )
            key = f"pairs{k}"
            self.files[key] = {"path": path, "z": kz / 1000.0, "y": ky / 1000.0}
            self.ops.append(
                Op(key, [["metrics", "--input", path, "--metrics", self.METRICS, "--format", "json"]])
            )

    def check(self, op: Op, texts: list) -> list:
        errors: list = []
        f = self.files[op.key]
        doc = json.loads(texts[0])
        _check_envelope(doc, "metrics", errors)
        specs = self.METRICS.split(",")
        want_options = {"input": f["path"], "metrics": specs, "as_index": False}
        if doc.get("options") != want_options:
            errors.append(f"options {doc.get('options')!r} differ from {want_options!r}")
        if doc.get("inputs") != {f["path"]: _digest(f["path"])}:
            errors.append("input digest differs from the file's SHA-256")
        result = doc.get("result", {})
        if result.get("n") != self.ROWS:
            errors.append(f"n = {result.get('n')!r}, file has {self.ROWS} rows")
        entries = result.get("metrics", [])
        if [e.get("name") for e in entries] != specs:
            return errors + [f"metric names {[e.get('name') for e in entries]!r} differ from {specs!r}"]
        values = {e["name"]: e["value"] for e in entries}
        for e in entries:
            spec = e["name"]
            orient = "positively-oriented" if spec == "nse" else "negatively-oriented"
            if e.get("orientation") != orient:
                errors.append(f"{spec}: orientation {e.get('orientation')!r}")
            _check_close(spec, e["value"], ref.metric(spec, f["z"], f["y"]), errors)
            if spec.split(":")[0] in AGREEMENT:
                _check_unit(spec, e["value"], errors)
        # The p = 2 reductions of the L_p family.
        _check_close("kbb:p=2 against lw", values["kbb:p=2"], values["lw"], errors, rel=1e-12)
        _check_close("nrp:p=2 against lnr2", values["nrp:p=2"], values["lnr2"], errors, rel=1e-12)
        return errors


class Calibration:
    """Noisy synthetic catchments, each calibrated under se, lnr2 and lw."""

    name = "calibration"
    INPUTS = 4  # catchments, one operation each
    WARMUP, CAL, VAL = 20, 40, 60
    LOSSES = ("se", "lnr2", "lw")
    OWN = {"se": "mse", "lnr2": "lnr2", "lw": "lw"}

    def __init__(self, seed: int, workdir: str):
        self.records = {}
        self.ops = []
        n = self.WARMUP + self.CAL + self.VAL
        for k in range(self.INPUTS):
            rng = _seeded(seed, 2, k)
            start = np.datetime64("2000-01-01") + np.timedelta64(500 * k, "D")
            dates = [str(start + np.timedelta64(i, "D")) for i in range(n)]
            day = (np.arange(n) + 50 * k) % 365
            pet = (3.0 + 2.0 * np.sin(2.0 * np.pi * (day - 120) / 365.0)).tolist()
            wet = rng.random(n) < 0.4
            precip = np.where(wet, rng.exponential(8.0, n), 0.0).tolist()
            capacity = float(rng.uniform(80.0, 250.0))
            recession = float(rng.uniform(0.05, 0.25))
            split = float(rng.uniform(0.1, 0.4))
            truth = ref.bucket_flow(capacity, recession, split, precip, pet, capacity / 2.0)
            noise = np.exp(0.3 * rng.standard_normal(n))
            flow = (np.array(truth) * noise).tolist()
            path = os.path.join(workdir, f"catchment{k}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("date,precip_mm,pet_mm,flow_mm\n")
                handle.writelines(
                    f"{d},{p!r},{e!r},{q!r}\n" for d, p, e, q in zip(dates, precip, pet, flow)
                )
            c0, c1 = self.WARMUP, self.WARMUP + self.CAL
            cal = (dates[c0], dates[c1 - 1])
            val = (dates[c1], dates[n - 1])
            key = f"catchment{k}"
            self.records[key] = {
                "path": path,
                "precip": precip,
                "pet": pet,
                "flow": flow,
                "cal": cal,
                "val": val,
                "cal_slice": slice(c0, c1),
                "val_slice": slice(c1, n),
            }
            argv = [
                "calibrate", "--data", path, "--warmup-days", str(self.WARMUP),
                "--cal", ":".join(cal), "--val", ":".join(val),
                "--loss", ",".join(self.LOSSES), "--format", "json",
            ]
            self.ops.append(Op(key, [argv]))

    def check(self, op: Op, texts: list) -> list:
        errors: list = []
        rec = self.records[op.key]
        doc = json.loads(texts[0])
        _check_envelope(doc, "calibrate", errors)
        options = doc.get("options", {})
        for name, want in (
            ("data", rec["path"]),
            ("warmup_days", self.WARMUP),
            ("cal", list(rec["cal"])),
            ("val", list(rec["val"])),
            ("loss", list(self.LOSSES)),
        ):
            if options.get(name) != want:
                errors.append(f"option {name} = {options.get(name)!r}, expected {want!r}")
        if doc.get("inputs") != {rec["path"]: _digest(rec["path"])}:
            errors.append("input digest differs from the file's SHA-256")
        result = doc.get("result", {})
        want_meta = {
            "warmup_days": self.WARMUP,
            "calibration_span": list(rec["cal"]),
            "validation_span": list(rec["val"]),
            "n_days": len(rec["flow"]),
            "losses": list(self.LOSSES),
        }
        if result.get("metadata") != want_meta:
            errors.append(f"metadata {result.get('metadata')!r} differs from {want_meta!r}")
        rows = result.get("rows", [])
        if [r.get("loss") for r in rows] != list(self.LOSSES):
            return errors + [f"row order {[r.get('loss') for r in rows]!r}, expected {list(self.LOSSES)!r}"]
        flow = np.array(rec["flow"])
        for row in rows:
            loss = row["loss"]
            if row.get("converged") is not True:
                errors.append(f"{loss}: converged is {row.get('converged')!r}")
            p = row["params"]
            if not (p["capacity"] > 0.0 and 0.0 < p["recession"] < 1.0 and 0.0 <= p["split"] <= 1.0):
                errors.append(f"{loss}: parameters {p!r} outside the model's domain")
                continue
            sim = np.array(
                ref.bucket_flow(
                    p["capacity"], p["recession"], p["split"],
                    rec["precip"], rec["pet"], p["capacity"] / 2.0,
                )
            )
            for span, sl, names in (
                ("calibration", rec["cal_slice"], ("mse", "lnr2", "lw")),
                ("validation", rec["val_slice"], ("mse", "lnr2", "lw", "vbar_mean")),
            ):
                got = row.get(span, {})
                for m in names:
                    _check_close(f"{loss} {span} {m}", got.get(m), ref.metric(m, sim[sl], flow[sl]), errors)
                    if m in AGREEMENT:
                        _check_unit(f"{loss} {span} {m}", got.get(m), errors)
        # Own-loss diagonal dominance on the calibration span.
        for row in rows:
            cell = self.OWN[row["loss"]]
            own = row["calibration"][cell]
            for other in rows:
                if other["calibration"][cell] < own:
                    errors.append(
                        f"{row['loss']} row's own {cell} {own!r} exceeds the "
                        f"{other['loss']} row's {other['calibration'][cell]!r}"
                    )
        return errors


class Experiments:
    """The paper's seeded commands, one round per experiment seed."""

    name = "experiments"
    INPUTS = 4  # experiment seeds, one operation each
    A1 = (0.6, 6.0, 20.0)
    N_LINEAR, SPLIT_LINEAR = 4000, 2000
    N_CLIM, SPLIT_CLIM = 1000, 500
    SERIES = 50
    STEPS = 301

    def __init__(self, seed: int, workdir: str):
        self.cases = {}
        self.ops = []
        for k in range(self.INPUTS):
            exp_seed = (seed * 1009 + k) % 2**64
            rng = _seeded(seed, 3, k)
            series = (rng.gamma(2.0, 1.5, self.SERIES) + 0.5).tolist()
            path = os.path.join(workdir, f"series{k}.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("y\n")
                handle.writelines(f"{v!r}\n" for v in series)
            mu, sd, _ = ref.moments(series)
            lo, hi = float(math.floor(mu - 3.0 * sd)), float(math.ceil(mu + 3.0 * sd))
            key = f"seed{exp_seed}"
            self.cases[key] = {"seed": exp_seed, "path": path, "series": series, "lo": lo, "hi": hi}
            fmt = ["--format", "json"]
            calls = [
                ["experiment", "linear", "--seed", str(exp_seed), "--a1", ",".join(map(str, self.A1)),
                 "--n-total", str(self.N_LINEAR), "--split", str(self.SPLIT_LINEAR)] + fmt,
                ["experiment", "climatology", "--seed", str(exp_seed),
                 "--n-total", str(self.N_CLIM), "--split", str(self.SPLIT_CLIM)] + fmt,
            ]
            for loss in ("lw", "lnr2"):
                calls.append(["fit-constant", "--loss", loss, "--input", path] + fmt)
            for loss in ("lw", "lnr2"):
                calls.append(
                    ["profile", "--loss", loss, "--input", path, "--min", repr(lo),
                     "--max", repr(hi), "--steps", str(self.STEPS)] + fmt
                )
            self.ops.append(Op(key, calls))

    def check(self, op: Op, texts: list) -> list:
        case = self.cases[op.key]
        errors: list = []
        docs = [json.loads(t) for t in texts]
        self._check_linear(case, docs[0], errors)
        self._check_climatology(case, docs[1], errors)
        for doc, loss in zip(docs[2:4], ("lw", "lnr2")):
            self._check_constant(case, doc, loss, errors)
        for doc, loss in zip(docs[4:6], ("lw", "lnr2")):
            self._check_profile(case, doc, loss, errors)
        return errors

    def _check_linear(self, case, doc, errors) -> None:
        _check_envelope(doc, "experiment", errors)
        x, eps = ref.linear_draws(case["seed"], self.N_LINEAR)
        s = self.SPLIT_LINEAR
        blocks = doc.get("result", {}).get("blocks", [])
        if len(blocks) != len(self.A1):
            errors.append(f"linear: {len(blocks)} blocks, expected {len(self.A1)}")
            return
        for a1, block in zip(self.A1, blocks):
            y = ref.LINEAR_INTERCEPT + a1 * x + eps
            xt, yt, xv, yv = x[:s], y[:s], x[s:], y[s:]
            tag = f"linear a1={a1}"
            meta = block["metadata"]
            for name, want in (
                ("kind", "linear"), ("seed", case["seed"]), ("stream_id", 0),
                ("n_total", self.N_LINEAR), ("n_train", s), ("n_test", self.N_LINEAR - s),
                ("true_slope", a1), ("true_intercept", ref.LINEAR_INTERCEPT),
                ("predictor", ref.LINEAR_GAMMA), ("noise", ref.LINEAR_NOISE),
            ):
                if meta.get(name) != want:
                    errors.append(f"{tag}: metadata {name} = {meta.get(name)!r}, expected {want!r}")
            _check_close(f"{tag} train_correlation", meta.get("train_correlation"), ref.correlation(xt, yt), errors)
            _check_close(f"{tag} test_std_y", meta.get("test_std_y"), ref.moments(yv)[1], errors)
            models = {m["model"]: m for m in block["models"]}
            if sorted(models) != ["model_1", "model_2", "model_3"]:
                errors.append(f"{tag}: models {sorted(models)!r}")
                continue
            slope, intercept = ref.ols(xt, yt)
            _check_close(f"{tag} least-squares slope", models["model_1"]["slope"], slope, errors)
            _check_close(f"{tag} least-squares intercept", models["model_1"]["intercept"], intercept, errors)
            slope, intercept, nr2_min = ref.nr2_linear(xt, yt)
            _check_close(f"{tag} norm-ratio slope", models["model_2"]["slope"], slope, errors)
            _check_close(f"{tag} norm-ratio intercept", models["model_2"]["intercept"], intercept, errors)
            for name, method in (("model_1", "closed_form"), ("model_2", "closed_form"), ("model_3", "numerical")):
                if models[name]["method"] != method:
                    errors.append(f"{tag} {name}: method {models[name]['method']!r}")
            train = {}
            for name, m in models.items():
                z = m["slope"] * xt + m["intercept"]
                train[name] = {"mse": ref.mse(z, yt), "lnr2": ref.l_nr2(z, yt), "lw": ref.l_w(z, yt)}
                zv = m["slope"] * xv + m["intercept"]
                for metric in ("mse", "lnr2", "lw", "vbar_mean"):
                    _check_close(f"{tag} {name} test {metric}", m[metric], ref.metric(metric, zv, yv), errors)
                    if metric in AGREEMENT:
                        _check_unit(f"{tag} {name} test {metric}", m[metric], errors)
            # Each estimator is best on its own training loss.
            _check_close(f"{tag} norm-ratio training minimum", train["model_2"]["lnr2"], nr2_min, errors)
            for own, metric in (("model_1", "mse"), ("model_2", "lnr2"), ("model_3", "lw")):
                best = train[own][metric]
                for name in train:
                    if train[name][metric] < best * (1.0 - 1e-12):
                        errors.append(
                            f"{tag}: {name} has training {metric} {train[name][metric]!r}, "
                            f"below {own}'s {best!r}"
                        )

    def _check_climatology(self, case, doc, errors) -> None:
        _check_envelope(doc, "experiment", errors)
        result = doc.get("result", {})
        y = ref.gaussian_draws(case["seed"], self.N_CLIM, 0.0, 1.0)
        train, test = y[: self.SPLIT_CLIM], y[self.SPLIT_CLIM:]
        mu, sd, _ = ref.moments(train)
        meta = result.get("metadata", {})
        for name, want in (
            ("kind", "climatology"), ("seed", case["seed"]), ("n_total", self.N_CLIM),
            ("n_train", self.SPLIT_CLIM), ("n_test", self.N_CLIM - self.SPLIT_CLIM),
            ("distribution", {"kind": "gaussian", "mu": 0.0, "sigma": 1.0}),
        ):
            if meta.get(name) != want:
                errors.append(f"climatology: metadata {name} = {meta.get(name)!r}, expected {want!r}")
        _check_close("climatology train_mean", meta.get("train_mean"), mu, errors)
        _check_close("climatology train_std", meta.get("train_std"), sd, errors)
        _check_close("climatology test_std", meta.get("test_std"), ref.moments(test)[1], errors)
        models = result.get("models", [])
        constants = (("model_1", "mean", mu), ("model_2", "mean-sd", mu - sd), ("model_3", "mean+sd", mu + sd))
        if [m.get("model") for m in models] != [c[0] for c in constants]:
            errors.append(f"climatology: models {[m.get('model') for m in models]!r}")
            return
        for m, (name, label, c) in zip(models, constants):
            if m.get("predictor") != label:
                errors.append(f"climatology {name}: predictor {m.get('predictor')!r}")
            _check_close(f"climatology {name} constant", m["constant"], c, errors)
            z = np.full(test.size, m["constant"])
            for metric in ("mse", "lnr2", "lw", "vbar_mean"):
                _check_close(f"climatology {name} {metric}", m[metric], ref.metric(metric, z, test), errors)
            _check_close(f"climatology {name} one_minus_nse", m["one_minus_nse"], 1.0 - ref.nse(z, test), errors)

    def _check_constant(self, case, doc, loss, errors) -> None:
        _check_envelope(doc, "fit-constant", errors)
        mu, sd, mad = ref.moments(case["series"])
        result = doc.get("result", {})
        if result.get("loss") != loss or result.get("n") != self.SERIES:
            errors.append(f"fit-constant {loss}: loss {result.get('loss')!r}, n {result.get('n')!r}")
        _check_close(f"fit-constant {loss} theta_plus", result.get("theta_plus"), mu + sd, errors)
        _check_close(f"fit-constant {loss} theta_minus", result.get("theta_minus"), mu - sd, errors)
        want = sd / (sd + mad) if loss == "lw" else 0.5
        _check_close(f"fit-constant {loss} min_loss", result.get("min_loss"), want, errors)

    def _check_profile(self, case, doc, loss, errors) -> None:
        _check_envelope(doc, "profile", errors)
        y = np.array(case["series"])
        mu, sd, mad = ref.moments(y)
        fn = ref.l_w if loss == "lw" else ref.l_nr2
        result = doc.get("result", {})
        rows = result.get("rows", [])
        grid = [r for r in rows if r.get("annotation") == ""]
        minima = [r for r in rows if r.get("annotation") == "minimum"]
        if len(grid) != self.STEPS or len(minima) != 2 or len(rows) != self.STEPS + 2:
            errors.append(f"profile {loss}: {len(grid)} grid rows and {len(minima)} minima")
            return
        if [r["theta"] for r in rows] != sorted(r["theta"] for r in rows):
            errors.append(f"profile {loss}: rows are not sorted by theta")
        step = (case["hi"] - case["lo"]) / (self.STEPS - 1)
        for i, r in enumerate(grid):
            _check_close(f"profile {loss} theta[{i}]", r["theta"], case["lo"] + i * step, errors, rel=1e-12)
        for r in rows:
            z = np.full(y.size, r["theta"])
            _check_close(f"profile {loss} loss at {r['theta']!r}", r["loss"], fn(z, y), errors)
            _check_unit(f"profile {loss} loss at {r['theta']!r}", r["loss"], errors)
        want_min = sd / (sd + mad) if loss == "lw" else 0.5
        for r, theta in zip(sorted(minima, key=lambda r: r["theta"]), (mu - sd, mu + sd)):
            _check_close(f"profile {loss} minimum at", r["theta"], theta, errors)
            _check_close(f"profile {loss} minimum value", r["loss"], want_min, errors)
        _check_close(f"profile {loss} min_loss", result.get("min_loss"), want_min, errors)


WORKLOADS = {w.name: w for w in (Calibration, Scoring, Experiments)}
