"""Tests of the benchmark itself: instance generation, failure accounting,
correctness gates and the metric sets.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from instances import deep_nesting_model

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PRINTER = (run.ROOT / "models" / "printer.model").read_text(encoding="utf-8")


def _small(model="printer", text=PRINTER, t=2):
    return run.Instance(model, text, t, run.UP, run.DOWN)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_gives_byte_identical_instances(workload):
    make = run.WORKLOADS[workload]
    assert make(7) == make(7)
    assert [i.text for i in make(7)] != [i.text for i in make(8)]


def test_synth_workloads_run_the_same_models():
    up, conj = run.WORKLOADS["synth-t3-up"](3), run.WORKLOADS["synth-t3-and"](3)
    assert [(i.text, i.t) for i in up] == [(i.text, i.t) for i in conj]
    assert {i.kind for i in up} == {run.UP} and {i.kind for i in conj} == {run.AND}


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)


def test_recursion_error_is_counted_not_fatal():
    records = []
    insts = [run.Instance("deep", deep_nesting_model(2000), 1, run.UP, run.DOWN),
             _small()]
    result = run.run_workload(insts, 0, False, emit=records.append)
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert result["failures"] == {"RecursionError": 1}
    deep = [r for r in records if r["instance"] == "deep/t1/bdd-partial-up"]
    assert [r["status"] for r in deep] == ["failed"]
    assert any(r["instance"] == "printer/t2/bdd-partial-up" and r["status"] == "ok"
               for r in records)
    assert result["metrics"]["suite_rows"][0] > 0


def test_gates_reject_a_suite_that_misses_a_row():
    inst = _small()
    rows, _ = run.run_plain(inst)
    run.check_gates(inst, rows, {})
    with pytest.raises(run.GateFailure):
        run.check_gates(inst, rows[1:], {})
    with pytest.raises(run.GateFailure):
        run.check_gates(inst, rows, {("printer", 2, run.DOWN): rows[1:]})


def test_anchor_mismatch_fails_the_instance():
    with pytest.raises(run.GateFailure):
        run.check_anchor(_small("synth20", t=3), 143, 32980, run.UP)
    run.check_anchor(_small("synth20", t=3), 143, 32981, run.UP)


def test_untraced_run_prints_the_end_to_end_metrics():
    result = run.run_workload([_small()], 0, False, emit=lambda r: None)
    assert result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: u for k, (_, u) in result["metrics"].items()} == expected
    assert all(v > 0 for v, _ in result["metrics"].values())


def test_traced_run_prints_every_layer_metric():
    tracer = run.tracing.Tracer()
    result = run.run_workload([_small()], 0, True, emit=lambda r: None,
                              tracer=tracer)
    assert result["failed"] == 0
    metrics = {k: v for k, (v, _) in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: u for k, (_, u) in result["metrics"].items()} == expected
    assert metrics["ipog.self_s"] + metrics["validity.check_s"] == \
        pytest.approx(metrics["trace.generate_s"])
    names = {span[2] for span in tracer.spans}
    assert {"model.parse_model", "encode.order_parameters", "encode.compile",
            "validity.build_partial_bdd.up", "validity.build_partial_bdd.down",
            "ipog.generate", "ipog.verify", "validity.is_valid"} <= names


def test_exits_nonzero_without_a_result_when_the_library_is_missing(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-t3-up",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
