"""Runs one round of a workload's operations in process through ``agreeloss.cli.main``.

``run.py`` starts a fresh worker for every round, after the inputs are
written, so every operation is the first call on its input in its
process, and a worker's peak resident memory is that of one round of
operations alone.  The import of the program comes before the timing.
The worker times each operation's wall and CPU time, and a fixed piece
of reference work before each operation and after the last, and writes
the outputs and timings to a JSON file.  In a traced round, the tracing
wrappers are installed around the operations, and the per-layer metrics
and spans of the round are written as well.

    python3 perfbench/worker.py MANIFEST.json RESULT.json
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_program():
    sys.path.insert(0, SRC)
    import agreeloss
    from agreeloss import cli, estimators, hydro, losses, simulate, vector_stats

    if not os.path.abspath(agreeloss.__file__).startswith(SRC + os.sep):
        raise ImportError(f"agreeloss imported from {agreeloss.__file__}, not from {SRC}")
    modules = {
        "cli": cli,
        "hydro": hydro,
        "estimators": estimators,
        "simulate": simulate,
        "losses": losses,
        "vector_stats": vector_stats,
    }
    return agreeloss, modules


def _call(main, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception:  # a fault in the program fails the operation, not the run
        return None, out.getvalue(), traceback.format_exc()
    return rc, out.getvalue(), err.getvalue()


def _cpu_s() -> float:
    """CPU time of this process and of any children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# Fixed inputs of the reference work, the same in every run and every worker.
_REF_RNG = np.random.default_rng(20251016)
_REF_PRECIP = np.where(_REF_RNG.random(120) < 0.4, _REF_RNG.exponential(8.0, 120), 0.0).tolist()
_REF_PET = (3.0 + 2.0 * np.sin(np.arange(120) / 58.0)).tolist()
_REF_LINES = [f"{a:.3f},{b:.3f}" for a, b in _REF_RNG.gamma(0.7, 6.0, (4000, 2)).tolist()]
_REF_VECTOR = _REF_RNG.random(200_000)


def reference_work_s() -> float:
    """Wall time of a fixed piece of work done by the benchmark's own code.

    On a shared virtual machine the speed of the whole machine moves by up
    to about 2x for minutes at a time, and a run can fall entirely in a
    slow spell. Timed next to every operation, this work is slowed by the
    same spell, so an operation's time divided by it repeats between runs
    where the operation's time alone does not. It mixes what the three
    workloads do: interpreted float loops (the reference bucket model),
    integer hashing and rejection sampling (the reference gamma sampler),
    CSV parsing, and a numpy sort and reduction over a long vector. None of
    it calls the program, so no change to the program moves it.
    """
    t0 = time.perf_counter()
    for k in range(125):
        ref.bucket_flow(150.0, 0.1 + 1e-4 * k, 0.2, _REF_PRECIP, _REF_PET, 75.0)
    stream = ref.Stream(7)
    for _ in range(1800):
        stream.gamma(0.4, 1.8)
    pairs = np.array([(float(a), float(b)) for a, b in csv.reader(_REF_LINES)])
    for _ in range(2):
        float(np.sort(_REF_VECTOR)[100] + np.abs(_REF_VECTOR - pairs[0, 0]).sum())
    return time.perf_counter() - t0


def main(manifest_path: str, result_path: str) -> int:
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    agreeloss, modules = _import_program()
    cli = modules["cli"]
    tracer = None
    if manifest["traced"]:
        from tracing import Tracer

        tracer = Tracer(modules)
        tracer.install()

    records, texts = [], {}
    try:
        for op in manifest["ops"]:
            ref_s = reference_work_s()
            sid = tracer.begin(f"op:{op['key']}") if tracer else None
            t0, c0 = time.perf_counter(), _cpu_s()
            results = [_call(cli.main, argv) for argv in op["calls"]]
            t1, c1 = time.perf_counter(), _cpu_s()
            if tracer:
                tracer.end(sid)
            texts[op["key"]] = [r[1] for r in results]
            records.append(
                {
                    "key": op["key"],
                    "ref_s": ref_s,
                    "wall_s": t1 - t0,
                    "cpu_s": c1 - c0,
                    "rcs": [r[0] for r in results],
                    "stderr": [r[2][-2000:] for r in results if r[0] != 0],
                    "digest": hashlib.sha256("\x00".join(texts[op["key"]]).encode()).hexdigest(),
                }
            )
    finally:
        if tracer:
            tracer.uninstall()

    result = {
        "ref_end_s": reference_work_s(),
        "version": agreeloss.__version__,
        "records": records,
        "texts": texts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["per_layer"] = tracer.layer_metrics(float(manifest["per_call_s"]))
        result["counts"] = dict(tracer.counts)
        result["spans"] = tracer.span_records()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
