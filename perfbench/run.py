"""Benchmark of agreeloss: catchment calibration, file scoring and the
paper's seeded experiments, end to end and, in a traced run, per module.

    python3 perfbench/run.py --workload calibration --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout that holds ``src/agreeloss``; no
install step is needed.  The script writes the workload's inputs from
``--seed`` under ``perfbench/out``, then runs whole rounds of the
operations for ``--seconds`` seconds, each round in a fresh worker
process that calls the CLI in process.  Each operation's time is reported
relative to a fixed piece of the benchmark's own work timed next to it.
Cold starts of the CLI are timed before each round and after the last
(``setup_s``).  Every output is checked
against ``reference.py`` and against properties of the method, and every
repeated invocation against the first output of its input.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Room for a worker to start, finish its round and write its result.
WORKER_GRACE_S = 120.0
# Cold starts timed for setup_s: one before each round, then more after
# the rounds up to this many, so the starts spread over the whole run.
MIN_COLD_STARTS = 7
# Time each traced round spends timing single calls on captured inputs.
PER_CALL_S = 2.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_start_s() -> tuple[float, str]:
    """Wall time of one fresh ``python -m agreeloss.cli --version``."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "agreeloss.cli", "--version"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"agreeloss --version exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed, proc.stdout.strip()


def run_worker(workdir: str, ops: list, traced: bool, timeout_s: float) -> dict:
    manifest_path = os.path.join(workdir, "manifest.json")
    result_path = os.path.join(workdir, "result.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump({"ops": ops, "traced": traced, "per_call_s": PER_CALL_S}, handle)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), manifest_path, result_path],
        cwd=ROOT, env=_env(),
    )
    try:
        rc = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise RuntimeError(f"worker exited with code {rc}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


def run_rounds(workdir: str, ops: list, seconds: float, trace: bool) -> tuple[list, list]:
    """Whole rounds, one fresh worker each, while the next one still fits,
    and the cold starts of the CLI timed before each round and after them.

    A traced run alternates untraced and traced rounds, at least one of each.
    """
    rounds, starts = [], []
    start = time.perf_counter()
    while True:
        starts.append(cold_start_s())
        traced = trace and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        result = run_worker(workdir, ops, traced, max(0.0, seconds - (t0 - start)) + WORKER_GRACE_S)
        result["traced"] = traced
        rounds.append(result)
        now = time.perf_counter()
        last = now - t0
        if trace and len(rounds) < 2:
            continue
        if now - start + last > seconds:
            break
    starts.append(cold_start_s())
    while len(starts) < MIN_COLD_STARTS:
        starts.append(cold_start_s())
    return rounds, starts


def ratio_to_reference(rounds: list, field: str) -> float:
    """Median over the run's inputs of the median, over an input's repeats,
    of the operation's time divided by the reference work timed around it.

    On a shared 2-vCPU virtual machine the whole machine's speed moves by
    up to about 2x for minutes at a time, so a run can fall entirely in a
    slow spell and no statistic of its raw times repeats between runs.
    The worker times a fixed piece of the benchmark's own work
    (``worker.reference_work_s``) before each operation and after the
    last; the mean of the two around an operation is slowed by the same
    spell. The median over inputs keeps one costly input from setting the
    figure.
    """
    per_input: dict = {}
    for result in rounds:
        records = result["records"]
        after = [r["ref_s"] for r in records[1:]] + [result["ref_end_s"]]
        for rec, ref_after in zip(records, after):
            ref_s = (rec["ref_s"] + ref_after) / 2.0
            per_input.setdefault(rec["key"], []).append(rec[field] / ref_s)
    return statistics.median(statistics.median(v) for v in per_input.values())


def check(workload, rounds: list, version_lines: set) -> tuple[int, int, list]:
    """Attempted and failed operations, and the errors found in outputs."""
    errors = []
    records, first = [], {}
    for result in rounds:
        if version_lines != {f"agreeloss {result['version']}"}:
            errors.append(f"--version printed {sorted(version_lines)!r}, package is {result['version']!r}")
        records.extend(result["records"])
        for key, texts in result["texts"].items():
            first.setdefault(key, texts)
    failed = [r for r in records if any(rc != 0 for rc in r["rcs"])]
    for r in failed[:3]:
        sys.stderr.write(f"failed operation {r['key']}: exit codes {r['rcs']}\n{''.join(r['stderr'])}\n")
    ops = {op.key: op for op in workload.ops}
    first_digest = {}
    for r in records:
        if r in failed:
            continue
        want = first_digest.setdefault(r["key"], r["digest"])
        if r["digest"] != want:
            errors.append(f"{r['key']}: a repeated invocation's output differs from the first")
    for key in first_digest:
        try:
            found = workload.check(ops[key], first[key])
        except (KeyError, TypeError, ValueError) as exc:
            found = [f"output does not have the documented form: {exc!r}"]
        errors.extend(f"{key}: {e}" for e in found)
    return len(records), len(failed), errors


def per_layer(rounds: list) -> dict:
    """Median over the traced rounds of each per-layer metric, in report order.

    Counts are the same in every round; times are steadier as a median.
    """
    traced = [r for r in rounds if r["traced"]]
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            plain = [r for r in rounds if not r["traced"]]
            value = ratio_to_reference(traced, "wall_s") - ratio_to_reference(plain, "wall_s")
        elif all(name in r["per_layer"] for r in traced):
            value = statistics.median(r["per_layer"][name] for r in traced)
        else:  # the program no longer has a name this metric needs
            continue
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_trace(path: str, workload: str, seed: int, rounds: list, metrics: dict) -> None:
    traced = [r for r in rounds if r["traced"]]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "columns": ["id", "parent", "name", "start_s", "end_s"],
                "rounds": [{"counts": r["counts"], "spans": r["spans"]} for r in traced],
                "per_layer": {name: m["value"] for name, m in metrics.items()},
            },
            handle,
            separators=(",", ":"),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if args.seed < 0 or args.seconds <= 0:
        sys.stderr.write("run.py: --seed must be non-negative and --seconds positive\n")
        return 2
    workload_type = WORKLOADS[args.workload]
    if not os.path.isfile(os.path.join(SRC, "agreeloss", "__init__.py")):
        # Every operation of the first round fails. The report goes to
        # standard error: with no program there is no measurement, and
        # standard output carries results only.
        n = workload_type.INPUTS
        sys.stderr.write(f"run.py: no program to measure: {SRC}/agreeloss is missing\n")
        sys.stderr.write(json.dumps({"correct": False, "attempted": n, "failed": n, "metrics": {}}) + "\n")
        return 2

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workload_type(args.seed, os.path.relpath(workdir, ROOT))
        ops = [{"key": op.key, "calls": op.calls} for op in workload.ops]
        rounds, starts = run_rounds(workdir, ops, args.seconds, bool(args.trace))
        attempted, failed, errors = check(workload, rounds, {line for _, line in starts})
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for e in errors[:20]:
        sys.stderr.write(f"check failed: {e}\n")

    if args.trace:
        metrics = per_layer(rounds)
        write_trace(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                    args.workload, args.seed, rounds, metrics)
    else:
        records = [rec for r in rounds for rec in r["records"]]
        sys.stderr.write(
            "run.py: median wall time of an operation %.4f s, of the reference work %.4f s, over %d operations\n"
            % (statistics.median(r["wall_s"] for r in records), statistics.median(r["ref_s"] for r in records), len(records))
        )
        metrics = {
            "op_ratio": {"value": ratio_to_reference(rounds, "wall_s"), "unit": "s/s"},
            "cpu_ratio": {"value": ratio_to_reference(rounds, "cpu_s"), "unit": "s/s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
            "setup_s": {"value": statistics.median(s for s, _ in starts), "unit": "s"},
        }
    summary = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
