"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

The command-line tests start the program in subprocesses and take about a
minute in all.
"""

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracing  # noqa: E402

sys.path.insert(0, str(bench.SRC))


@pytest.fixture(scope="module")
def inputs():
    return bench._load_inputs()


@pytest.fixture(scope="module")
def mcs_reps(inputs, tmp_path_factory):
    """One untraced and one traced tiny Monte Carlo repetition."""
    wl = bench.SMOKE["mcs"]
    out = tmp_path_factory.mktemp("mcs")
    return [bench.run_inprocess(wl, 3, out / str(t), inputs, t) for t in (False, True)]


def test_self_time_subtracts_union_of_children():
    assert tracing.self_time(0.0, 10.0, []) == 10.0
    assert tracing.self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 6.0)]) == 7.0
    # overlapping and nested children count once
    assert tracing.self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 6.0), (4.0, 4.5)]) == 5.0
    # children reaching outside the parent are clipped to it
    assert tracing.self_time(2.0, 10.0, [(0.0, 3.0), (9.0, 12.0)]) == 6.0
    assert tracing.self_time(0.0, 10.0, [(11.0, 12.0)]) == 10.0


def test_tracer_attributes_restored_and_report_unchanged(mcs_reps):
    import importlib

    untraced, traced = mcs_reps
    assert untraced.report is not None and untraced.report == traced.report
    for mod_name, attr in tracing.TRACED:
        fn = getattr(importlib.import_module(f"adcap.{mod_name}"), attr)
        assert not hasattr(fn, "__wrapped__"), f"{mod_name}.{attr} still wrapped"
    layers = traced.layers
    assert layers["continuation.trace_adc.calls"] == bench.SMOKE["mcs"].samples + 1
    assert layers["continuation.trace_adc.repeat_frac"] == 0.0
    assert layers["powerflow.solve.calls"] > layers["powerflow.solve.failed"] > 0


def test_tracer_restores_attributes_when_the_run_raises():
    from adcap import powerflow

    original = powerflow.solve
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer() as tracer:
            assert powerflow.solve is not original
            1 / 0
    assert powerflow.solve is original
    assert tracer.spans == []


def test_gate_accepts_a_good_report_and_flags_each_fault(mcs_reps):
    wl = bench.SMOKE["cli-parallel"]  # fixed SPCE budget of 31
    doc = json.loads(mcs_reps[0].report)
    assert bench.gate(doc, wl) == []

    def problems(mutate):
        bad = copy.deepcopy(doc)
        mutate(bad)
        return bench.gate(bad, wl)

    det = "deterministic_adc"
    assert problems(lambda d: d[det]["adc_mw"].update(voltage=0.5))
    assert problems(lambda d: d[det]["adc_mw"].update(thermal=2.0, collapse=1.9))
    assert problems(lambda d: d[det]["binding"].update(voltage="675.a:lower"))
    assert problems(lambda d: d["methods"]["mcs"]["classes"]["overall"].update(skewness=math.nan))
    assert problems(lambda d: d["methods"].update(pce={"eval_count": 90, "classes": {}}))
    assert problems(lambda d: d["methods"].update(spce={"eval_count": 91, "classes": {}}))


def test_cli_report_identical_at_one_and_two_workers(tmp_path):
    docs = {}
    for workers in (1, 2):
        wl = bench.replace(bench.SMOKE["cli-parallel"], workers=workers)
        rep = bench.run_cli(wl, 5, tmp_path / f"w{workers}", traced=False)
        assert rep.problems == []
        docs[workers] = json.loads(rep.report)
    assert docs[1]["config"].pop("workers") == 1
    assert docs[2]["config"].pop("workers") == 2
    assert docs[1] == docs[2]


def test_benchmark_json_names_the_workloads_run_py_defines():
    assert [w["name"] for w in bench.SPEC["workloads"]] == list(bench.WORKLOADS)
    assert list(bench.SMOKE) == list(bench.WORKLOADS)


def test_smoke_mode_runs_every_workload_traced_and_untraced():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    for wl in bench.WORKLOADS:
        for name in {**bench.END_TO_END_UNITS, **bench.PER_LAYER_UNITS}:
            assert f"{wl}.{name}" in line["metrics"]
    assert line["metrics"]["surrogate.continuation.trace_adc.repeat_frac"]["value"] > 0.3
    assert line["metrics"]["mcs.continuation.trace_adc.repeat_frac"]["value"] == 0.0


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mcs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
