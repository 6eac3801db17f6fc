"""Every check passes on the program's real output and rejects a corrupted one."""

import copy
import json

import pytest

import run
import workloads
from tracing import Tracer

cli = pytest.importorskip("agreeloss.cli")


def _outputs(op) -> list:
    from worker import _call

    results = [_call(cli.main, argv) for argv in op.calls]
    assert [r[0] for r in results] == [0] * len(results), [r[2] for r in results]
    return [r[1] for r in results]


def _edit(text: str, change) -> str:
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def scoring(tmp_path_factory):
    w = workloads.Scoring(4, str(tmp_path_factory.mktemp("scoring")))
    return w, w.ops[0], _outputs(w.ops[0])


@pytest.fixture(scope="module")
def calibration(tmp_path_factory):
    w = workloads.Calibration(4, str(tmp_path_factory.mktemp("calibration")))
    return w, w.ops[0], _outputs(w.ops[0])


@pytest.fixture(scope="module")
def experiments(tmp_path_factory):
    w = workloads.Experiments(4, str(tmp_path_factory.mktemp("experiments")))
    return w, w.ops[0], _outputs(w.ops[0])


def test_checks_accept_the_program_output(scoring, calibration, experiments):
    for w, op, texts in (scoring, calibration, experiments):
        assert w.check(op, texts) == []


def test_scoring_rejects_a_perturbed_metric(scoring):
    w, op, texts = scoring

    def perturb(doc):
        entry = doc["result"]["metrics"][6]  # nrp:p=1.5
        entry["value"] *= 1.0 + 1e-7

    errors = w.check(op, [_edit(texts[0], perturb)])
    assert any("nrp:p=1.5" in e for e in errors)


def test_scoring_rejects_a_broken_p2_reduction(scoring):
    w, op, texts = scoring

    def break_reduction(doc):
        doc["result"]["metrics"][4]["value"] = doc["result"]["metrics"][2]["value"] * (1.0 + 1e-10)

    errors = w.check(op, [_edit(texts[0], break_reduction)])
    assert any("kbb:p=2 against lw" in e for e in errors)


def test_calibration_rejects_swapped_rows(calibration):
    w, op, texts = calibration

    def swap_rows(doc):
        rows = doc["result"]["rows"]
        rows[0], rows[1] = rows[1], rows[0]

    def swap_params(doc):
        rows = doc["result"]["rows"]
        rows[0]["params"], rows[2]["params"] = rows[2]["params"], rows[0]["params"]

    assert any("row order" in e for e in w.check(op, [_edit(texts[0], swap_rows)]))
    assert w.check(op, [_edit(texts[0], swap_params)])


def test_calibration_rejects_a_broken_diagonal_and_no_convergence(calibration):
    w, op, texts = calibration

    def worse_own_cell(doc):
        row = doc["result"]["rows"][1]  # lnr2
        row["calibration"]["lnr2"] = max(r["calibration"]["lnr2"] for r in doc["result"]["rows"]) + 0.01

    def not_converged(doc):
        doc["result"]["rows"][2]["converged"] = False

    assert any("exceeds" in e for e in w.check(op, [_edit(texts[0], worse_own_cell)]))
    assert any("converged" in e for e in w.check(op, [_edit(texts[0], not_converged)]))


def test_experiments_reject_a_wrong_slope(experiments):
    w, op, texts = experiments

    def wrong_slope(doc):
        doc["result"]["blocks"][1]["models"][0]["slope"] *= 1.0 + 1e-6

    def wrong_lw_fit(doc):
        model = doc["result"]["blocks"][0]["models"][2]
        model["slope"] *= 1.01

    bad = list(texts)
    bad[0] = _edit(texts[0], wrong_slope)
    assert any("least-squares slope" in e for e in w.check(op, bad))
    bad[0] = _edit(texts[0], wrong_lw_fit)
    assert w.check(op, bad)


def test_experiments_reject_a_moved_profile_minimum(experiments):
    w, op, texts = experiments

    def move_minimum(doc):
        for row in doc["result"]["rows"]:
            if row["annotation"] == "minimum":
                row["theta"] += 1e-6
                break

    bad = list(texts)
    bad[4] = _edit(texts[4], move_minimum)
    assert any("minimum at" in e for e in w.check(op, bad))


def _rounds(op, texts, digests):
    """One worker result per round, each with one record of ``op``."""
    return [
        {"version": "0.1.0", "records": [{"key": op.key, "rcs": [0], "stderr": [], "digest": d}],
         "texts": {op.key: texts}}
        for d in digests
    ]


def test_a_changed_byte_in_a_repeat_is_rejected(scoring):
    w, op, texts = scoring
    ok = _rounds(op, texts, ["a", "a", "a"])
    assert run.check(w, ok, {"agreeloss 0.1.0"}) == (3, 0, [])
    attempted, failed, errors = run.check(w, _rounds(op, texts, ["a", "b", "a"]), {"agreeloss 0.1.0"})
    assert (attempted, failed) == (3, 0) and any("repeated invocation" in e for e in errors)


def test_failed_operations_are_counted():
    w = type("W", (), {"ops": []})()
    rounds = [{"version": "0.1.0", "records": [{"key": "k", "rcs": [0, 1], "stderr": ["boom"], "digest": "x"}],
               "texts": {}}]
    assert run.check(w, rounds, {"agreeloss 0.1.0"}) == (1, 1, [])


def test_ratio_divides_by_the_reference_work_around_each_operation():
    def rec(key, wall, ref_s):
        return {"key": key, "wall_s": wall, "cpu_s": wall, "ref_s": ref_s}

    # Round 1: a at 2 s between reference timings 0.1 and 0.3, b at 4 s
    # between 0.3 and the round's last 0.1. Round 2 runs at half speed.
    rounds = [
        {"records": [rec("a", 2.0, 0.1), rec("b", 4.0, 0.3)], "ref_end_s": 0.1},
        {"records": [rec("a", 4.0, 0.4), rec("b", 8.0, 0.4)], "ref_end_s": 0.4},
    ]
    # a: 2 / 0.2 and 4 / 0.4, median 10; b: 4 / 0.2 and 8 / 0.4, median 20.
    assert run.ratio_to_reference(rounds, "wall_s") == pytest.approx(15.0)
    assert run.ratio_to_reference(rounds[1:], "cpu_s") == pytest.approx(15.0)


def test_traced_counts_agree_and_repeat(calibration):
    from agreeloss import estimators, hydro, losses, simulate, vector_stats

    w, op, _ = calibration
    modules = {"cli": cli, "hydro": hydro, "estimators": estimators, "simulate": simulate,
               "losses": losses, "vector_stats": vector_stats}
    original_render = cli.render
    counts = []
    for _ in range(2):
        tracer = Tracer(modules)
        tracer.install()
        try:
            sid = tracer.begin("op")
            _outputs(op)
            tracer.end(sid)
        finally:
            tracer.uninstall()
        assert tracer.missing == set()
        counts.append(copy.deepcopy(dict(tracer.counts)))
    assert cli.render is original_render
    c = counts[0]
    assert counts[0] == counts[1]
    assert c["bucket_runs"] == c["evaluations"] + c["calibrate_calls"]


def test_tracer_leaves_out_metrics_of_names_the_program_lacks():
    import types

    modules = {name: types.SimpleNamespace() for name in
               ("cli", "hydro", "estimators", "simulate", "losses", "vector_stats")}
    tracer = Tracer(modules)
    tracer.install()
    tracer.uninstall()
    assert "hydro.run_bucket" in tracer.missing
    sid = tracer.begin("op:x")
    tracer.end(sid)
    metrics = tracer.layer_metrics(0.0)
    assert "hydro.bucket_runs" not in metrics and "cli.render_s" not in metrics
    assert metrics["cli.self_s"] >= 0.0 and metrics["losses.l_w_us"] == 0.0


def test_without_the_program_every_operation_is_reported_failed(tmp_path):
    import os
    import shutil
    import subprocess
    import sys

    bench = os.path.dirname(os.path.abspath(run.__file__))
    shutil.copytree(bench, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scoring", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    n = workloads.Scoring.INPUTS
    assert report == {"correct": False, "attempted": n, "failed": n, "metrics": {}}
