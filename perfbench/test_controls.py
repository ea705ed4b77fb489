"""Negative controls for the benchmark: its gates must be able to fail.

    python3 -m pytest perfbench -q

Each test runs a few small real steps through the tonalg command line.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

VERIFY_STEP = run.Step("verify", 2, 2, None)
GRAM_STEP = run.Step("gram", 2, 5, ("2,1|1", "1/1"))
BASIS_STEP = run.Step("basis", 2, 5, None)


def make_runner(tmp_path, expected=None):
    expected = run.load_expected() if expected is None else expected
    sos = run.sum_of_squares([BASIS_STEP])
    return run.Runner(str(tmp_path), time.monotonic() + 120, expected, sos)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_names()
    fake = run.StepResult(VERIFY_STEP, 1.0, 1.0, 20.0, 0, True, "", 10, None)
    e2e = run.end_to_end_metrics([fake], [0.1])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [(k, v["unit"]) for k, v in e2e.items()]


def test_recorded_outputs_pass_the_gate(tmp_path):
    runner = make_runner(tmp_path)
    for step in (VERIFY_STEP, GRAM_STEP, BASIS_STEP):
        res = runner.run(step)
        assert res.ok, res.reason


def test_mutated_expected_value_fails_the_gate(tmp_path):
    key = "2,5,2,1|1"
    mutations = [
        (GRAM_STEP, lambda e: e["gram"][key].update(dim=e["gram"][key]["dim"] + 1)),
        (GRAM_STEP, lambda e: e["gram"][key].update(generic_rank=0)),
        (GRAM_STEP, lambda e: e["gram"][key]["det"].update({"0": 7})),
        (GRAM_STEP, lambda e: e["gram"][key]["rank_at"].update({"1/1": 0})),
        (BASIS_STEP, lambda e: e["basis"]["2,5"].update(sha256="0" * 64)),
        (BASIS_STEP, lambda e: e["basis"]["2,5"].update(count=6557)),
    ]
    for step, mutate in mutations:
        expected = copy.deepcopy(run.load_expected())
        mutate(expected)
        assert not make_runner(tmp_path, expected).run(step).ok


def test_sum_of_squares_disagreement_fails_the_gate(tmp_path):
    runner = make_runner(tmp_path)
    runner.sos = {(2, 5): runner.sos[(2, 5)] + 1}
    assert not runner.run(BASIS_STEP).ok


def test_verify_summary_must_match():
    step = run.Step("verify", 1, 0, ("associativity", "sum-of-squares"))
    good = b"PASS associativity (l=1,n=0)\nPASS sum-of-squares (l=1,n=0)\n2/2 checks passed\n"
    assert run.check_step(step, 0, good, None, {}, {})[0]
    bad = good.replace(b"PASS sum", b"FAIL sum")
    assert not run.check_step(step, 0, bad, None, {}, {})[0]
    assert not run.check_step(step, 0, good.replace(b"2/2", b"1/1"), None, {}, {})[0]
    assert not run.check_step(step, 1, good, None, {}, {})[0]


def test_failing_step_raises_fail_ratio(tmp_path):
    runner = make_runner(tmp_path)
    good = runner.run(VERIFY_STEP)
    # an unknown check name: the command line exits 2
    bad = runner.run(run.Step("verify", 2, 2, ("no-such-check",)))
    assert good.ok and not bad.ok and bad.rc != 0
    metrics = run.end_to_end_metrics([good, bad], [0.1])
    assert 1.0 - metrics["pass_ratio"]["value"] > 0


def test_traced_call_counts_repeat_exactly(tmp_path):
    runner = make_runner(tmp_path)
    steps = [run.Step("verify", 2, 3, None), GRAM_STEP, BASIS_STEP]
    passes = []
    for _ in range(2):
        traced = [runner.run(s, traced=True) for s in steps]
        assert all(r.ok for r in traced)
        passes.append(run.per_layer_metrics(traced, traced))
    first, second = passes
    counts = [n for n, unit in run.per_layer_names() if unit in ("count", "ratio", "bytes")]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    for name in ("diagram.compose.calls", "algebra.set_partitions.yielded", "exactla.bareiss_det.calls",
                 "gram.GramMatrix.builds", "verify.checks_run", "diagram.serialize.calls",
                 "deltapoly.divexact.calls"):
        assert first[name]["value"] > 0, name
    assert first["verify.checks_run"]["value"] == 4 * len(run.CHECK_NAMES)
    assert first["verify.checks_failed"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "basis-enum", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert out.returncode != 0
    assert b"correct" not in out.stdout
