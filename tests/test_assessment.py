"""Assessment pipeline: method runners, comparison table, report files, CLI."""

import concurrent.futures
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adcap import assessment, chaos, continuation, stochastic
from adcap.assessment import (
    AssessmentConfig,
    MethodResult,
    compare,
    ks_distance,
    run_mcs,
    run_pce,
)
from adcap.cli import main as cli_main
from adcap.errors import ConfigurationError
from adcap.feeder import load_feeder
from adcap.powerflow import NetworkCase
from adcap.report import CDF_BLOCK_ROWS, run_assessment, write_outputs
from adcap.stochastic import build_registry

from conftest import DATA, delta_wye_doc, pv_two_bus_doc, two_bus_doc
from oracles import write_cdf_rows

REPO = Path(__file__).resolve().parents[1]


def _small_scenario(mean_kw=200.0, std_kw=20.0, pf=0.9):
    return {
        "wind": [],
        "solar": [],
        "loads_stochastic": [
            {"bus": "r", "phase": "a", "mean_kw": mean_kw, "std_kw": std_kw,
             "power_factor": pf},
        ],
    }


def _small_ctx(scenario=None, ampacity=600.0, v_min=0.90):
    # finite ampacity so the thermal class has its own crossing
    doc = two_bus_doc(v_min=v_min)
    doc["branches"][0]["ampacity_a"] = ampacity
    model = load_feeder(doc)
    registry = build_registry(model, scenario or _small_scenario())
    return (NetworkCase(model), registry, {}), model


def _design(ctx):
    """The one full collocation design a run builds for PCE and SPCE."""
    n = ctx[1].dimension
    return chaos.collocation_design(n, chaos.basis_size(n, chaos.ORDER))


def _mcs(ctx, config):
    """run_mcs on ``ctx``, traced in this process."""
    with assessment.trace_pool(ctx, 1) as trace:
        return run_mcs(ctx[1], config, trace)


def _pce(ctx, config, sparse):
    """run_pce on ``ctx`` and its full design, traced in this process."""
    with assessment.trace_pool(ctx, 1) as trace:
        return run_pce(ctx[1], config, _design(ctx), sparse, trace)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        AssessmentConfig(method="bootstrap")
    with pytest.raises(ConfigurationError):
        AssessmentConfig(mcs_samples=0)
    with pytest.raises(ConfigurationError):
        AssessmentConfig(surrogate_samples=0)
    with pytest.raises(ConfigurationError):
        AssessmentConfig(workers=0)
    with pytest.raises(ConfigurationError, match="seed must be >= 0"):
        AssessmentConfig(seed=-1)
    assert AssessmentConfig(method="all").methods() == ["mcs", "pce", "spce"]
    assert AssessmentConfig(method="spce").methods() == ["spce"]


def test_base_case_solved_once_per_run(model, scenario_doc, monkeypatch):
    from adcap import powerflow

    directions = []
    solve = powerflow.solve

    def counting(curve, *args, **kwargs):
        directions.append(curve.direction)
        return solve(curve, *args, **kwargs)

    monkeypatch.setattr(powerflow, "solve", counting)
    run_assessment(model, scenario_doc, AssessmentConfig(method="mcs", mcs_samples=8))
    assert sum(d is None for d in directions) == 1  # the base case has no direction
    assert len(directions) > 8  # the traces themselves still solve


def test_trace_memo_traces_each_direction_once_per_run(model, scenario_doc, monkeypatch):
    # a run builds one design, whose first row is the mean input and whose
    # first M_C rows are the SPCE design at any budget, so a run traces
    # 1 + 8 + 90 directions in 1 + 8 + 91 + M_C calls (113 directions at
    # 60 rows when shorter designs were not prefixes of the full one); MCS
    # draws bypass the memo, and a new run starts from an empty one
    from adcap import continuation

    calls, computed, designs = [], [], []
    trace_adc, tracer_run = continuation.trace_adc, continuation._Tracer.run
    collocation_design = chaos.collocation_design

    def counting_trace(*args, **kwargs):
        calls.append(kwargs.get("memo") is not None)
        return trace_adc(*args, **kwargs)

    def counting_run(self):
        computed.append(1)
        return tracer_run(self)

    def counting_design(*args, **kwargs):
        designs.append(1)
        return collocation_design(*args, **kwargs)

    monkeypatch.setattr(continuation, "trace_adc", counting_trace)
    monkeypatch.setattr(continuation._Tracer, "run", counting_run)
    monkeypatch.setattr(chaos, "collocation_design", counting_design)
    reports = {}
    for terms in (31, 31, 60):
        cfg = AssessmentConfig(
            method="all", sparse_terms=terms, mcs_samples=8, surrogate_samples=64
        )
        for counter in (calls, computed, designs):
            counter.clear()
        report = run_assessment(model, scenario_doc, cfg).to_json()
        assert reports.setdefault(terms, report) == report
        assert len(calls) == 1 + 8 + 91 + terms
        assert sum(calls) == 1 + 91 + terms  # the MCS draws pass no memo
        assert len(computed) == 1 + 8 + 90
        assert len(designs) == 1
        blob = json.loads(report)
        assert blob["methods"]["pce"]["eval_count"] == 91
        assert blob["methods"]["spce"]["eval_count"] == terms


def test_mcs_eval_count_and_reproducibility():
    cfg = AssessmentConfig(method="mcs", mcs_samples=25, seed=3)
    ctx, _ = _small_ctx()
    r1 = _mcs(ctx, cfg)
    ctx2, _ = _small_ctx()
    r2 = _mcs(ctx2, cfg)
    assert r1.eval_count == 25
    assert r1.failures == 0 and not r1.unreliable
    for cls in ("voltage", "thermal", "collapse", "overall"):
        assert np.array_equal(
            r1.classes[cls].samples, r2.classes[cls].samples
        )
    # at 600 A the line overloads before the voltage band breaks
    m = {c: r1.classes[c].mean for c in ("voltage", "thermal", "collapse")}
    assert m["thermal"] < m["voltage"] < m["collapse"]
    assert np.array_equal(
        r1.classes["overall"].samples, r1.classes["thermal"].samples
    )


def test_mcs_seed_changes_samples():
    ctx, _ = _small_ctx()
    a = _mcs(ctx, AssessmentConfig(method="mcs", mcs_samples=20, seed=0))
    b = _mcs(ctx, AssessmentConfig(method="mcs", mcs_samples=20, seed=1))
    assert not np.array_equal(
        a.classes["overall"].samples, b.classes["overall"].samples
    )


def test_mcs_binding_tallies_cover_all_traces():
    ctx, _ = _small_ctx()
    res = _mcs(ctx, AssessmentConfig(method="mcs", mcs_samples=15, seed=2))
    assert sum(res.binding_freq["overall_class"].values()) == 15
    assert sum(res.binding_freq["voltage"].values()) == 15
    assert set(res.binding_freq["voltage"]) == {"r.a:lower"}
    assert set(res.binding_freq["thermal"]) == {"ln"}


@pytest.mark.parametrize("fault, message", [
    ("moved-on", "crossing moved on after 3 re-pins"),
    ("off-bracket", "off its bracket"),
])
def test_a_crossing_that_cannot_be_solved_fails_its_trace_only(monkeypatch, fault, message):
    # the first crossing solved either finds its class past the limit after
    # every re-pin or lands outside its bracket: that trace fails with one
    # counted ConvergenceError, and the others hold
    solve_at_limit = continuation._Tracer._solve_at_limit
    check_limits = continuation.check_limits
    n_forced = 4 if fault == "moved-on" else 1  # the solves of the first crossing
    held = []  # the states they solved

    def forced_solve(self, p, z, side):
        state = solve_at_limit(self, p, z, side)
        if len(held) < n_forced:
            held.append(state)
            if fault == "off-bracket":
                state.z = state.z.copy()
                state.z[-1] += 1.0
        return state

    def past_the_limit(case, state):
        status = check_limits(case, state)
        if any(state is s for s in held):
            status.v_lower_margin -= 1e-6
            status.v_upper_margin -= 1e-6
            status.thermal_margin -= 1e-6
        return status

    monkeypatch.setattr(continuation._Tracer, "_solve_at_limit", forced_solve)
    if fault == "moved-on":
        monkeypatch.setattr(continuation, "check_limits", past_the_limit)
    ctx, _ = _small_ctx()
    res = _mcs(ctx, AssessmentConfig(method="mcs", mcs_samples=6, seed=0))
    assert len(held) == n_forced
    assert res.eval_count == 6 and res.failures == 1
    assert res.to_dict()["failure_counts"] == {"ConvergenceError": 1}
    assert res.failure_reasons[0].startswith("ConvergenceError: ")
    assert message in res.failure_reasons[0]
    assert len(res.classes["overall"].samples) == 5


def test_pce_full_design_trace_count():
    # one random input at order 2: basis size comb(3, 2) = 3
    ctx, _ = _small_ctx()
    cfg = AssessmentConfig(method="pce", surrogate_samples=256, seed=0)
    res = _pce(ctx, cfg, sparse=False)
    assert res.eval_count == 3
    assert res.diagnostics["basis_size"] == 3
    assert res.diagnostics["design_rows"] == 3
    assert res.failures == 0


def test_pce_fails_when_a_design_trace_fails(monkeypatch):
    # a fit needs every design row, so one failed design trace fails the run
    from adcap.errors import ConvergenceError

    ctx, _ = _small_ctx()
    inputs = stochastic.physical_inputs(_design(ctx).points, ctx[1].distributions())
    target = stochastic.assemble_variation(inputs[1], ctx[1])
    trace = continuation.trace_adc

    def faulty(case, variation, memo=None):
        if variation == target:
            raise ConvergenceError("injected")
        return trace(case, variation, memo=memo)

    monkeypatch.setattr(continuation, "trace_adc", faulty)
    cfg = AssessmentConfig(method="pce", surrogate_samples=256, seed=0)
    with pytest.raises(ConvergenceError) as exc:
        _pce(ctx, cfg, sparse=False)
    assert str(exc.value).startswith("design-point trace 1 failed (ConvergenceError: injected); ")


def test_spce_trace_count_follows_term_budget():
    ctx, _ = _small_ctx()
    cfg = AssessmentConfig(
        method="spce", surrogate_samples=256, sparse_terms=2, seed=0
    )
    res = _pce(ctx, cfg, sparse=True)
    assert res.eval_count == 2
    assert all(t <= 2 for t in res.diagnostics["terms"].values())

    auto = AssessmentConfig(method="spce", surrogate_samples=256, seed=0)
    res_auto = _pce(ctx, auto, sparse=True)
    assert res_auto.eval_count == 3  # auto rule needs the full-rank design


def test_pce_surrogate_tracks_mcs_on_smooth_response():
    # a lone stochastic load gives a fixed ray (the margin in MW is invariant),
    # so add a wind unit to make the direction genuinely two-dimensional
    scenario = _small_scenario()
    scenario["wind"] = [{
        "bus": "r", "phases": "a", "p_rated_kw": 100.0,
        "v_cut_in": 4.0, "v_rated": 15.0, "v_cut_out": 25.0,
        "mean_speed": 10.0, "std_speed": 1.5, "power_factor": 0.85,
    }]
    ctx, _ = _small_ctx(scenario=scenario)
    mcs = _mcs(ctx, AssessmentConfig(method="mcs", mcs_samples=300, seed=0))
    pce_cfg = AssessmentConfig(method="pce", surrogate_samples=4000, seed=0)
    pce = _pce(ctx, pce_cfg, sparse=False)
    assert pce.eval_count == 6  # comb(2 + 2, 2)
    for cls in ("voltage", "thermal", "collapse"):
        bm = mcs.classes[cls].mean
        om = pce.classes[cls].mean
        assert abs(om - bm) / bm < 0.02
        bv = mcs.classes[cls].variance
        ov = pce.classes[cls].variance
        assert bv > 0
        assert abs(ov - bv) / bv < 0.30

    # every method reports exactly the four classes, and so does every
    # comparison pair, full and sparse alike
    spce_cfg = AssessmentConfig(method="spce", surrogate_samples=4000, sparse_terms=4, seed=0)
    spce = _pce(ctx, spce_cfg, sparse=True)
    results = {"mcs": mcs, "pce": pce, "spce": spce}
    classes = {"voltage", "thermal", "collapse", "overall"}
    for res in results.values():
        assert set(res.classes) == classes
        for stats in res.classes.values():
            assert stats.to_dict()["count"] == len(stats.samples)
    pairs = compare(results)["pairs"]
    assert set(pairs) == {"pce", "spce"}
    for pair in pairs.values():
        assert set(pair["classes"]) == classes


def test_zero_spread_inputs_give_zero_variance():
    ctx, _ = _small_ctx(scenario=_small_scenario(std_kw=0.0))
    mcs = _mcs(ctx, AssessmentConfig(method="mcs", mcs_samples=12, seed=0))
    for cls in ("voltage", "thermal", "collapse", "overall"):
        # identical traces; only mean-rounding noise survives
        assert mcs.classes[cls].variance < 1e-30
    pce_cfg = AssessmentConfig(method="pce", surrogate_samples=64, seed=0)
    pce = _pce(ctx, pce_cfg, sparse=False)
    for cls in ("voltage", "thermal", "collapse"):
        assert pce.classes[cls].analytic_variance < 1e-18
        assert pce.classes[cls].variance < 1e-18
        assert pce.classes[cls].clip_fraction == 0.0


def _synthetic_result(method, eval_count, rows):
    samples, freq = assessment._aggregate_samples(rows)
    classes = {k: chaos.sample_moments(v) for k, v in samples.items()}
    return MethodResult(method, eval_count, classes, freq, "rule")


def test_compare_identical_samples_gives_zero_deltas():
    rows = [
        (1.0 + 0.01 * i, 2.0 + 0.02 * i, 3.0 + 0.03 * i, "voltage", "r.a:lower", "ln", False)
        for i in range(20)
    ]
    out = compare(
        {"mcs": _synthetic_result("mcs", 20, rows), "spce": _synthetic_result("spce", 5, rows)}
    )
    assert out["baseline"] == "mcs"
    pair = out["pairs"]["spce"]
    assert pair["eval_ratio"] == pytest.approx(0.25)
    for cls in ("voltage", "thermal", "collapse", "overall"):
        row = pair["classes"][cls]
        assert row["mean_rel_delta"] == 0.0
        assert row["var_rel_delta"] == 0.0
        assert row["skew_delta"] == 0.0
        assert row["kurt_delta"] == 0.0
        assert row["ks_distance"] == 0.0
    assert compare({}) == {}


def test_failures_counted_by_type_beyond_the_listed_reasons():
    rows = [(1.0, 2.0, 3.0, "voltage", "r.a:lower", "ln", False)] * 5
    res = _synthetic_result("mcs", 30, rows)
    res.failure_reasons = [
        "ConvergenceError: continuation stalled before locating the fold"
    ] * 17 + ["SingularJacobianError: jacobian factorization failed at iteration 3"] * 8
    res.failures = len(res.failure_reasons)
    out = res.to_dict()
    assert out["failures"] == 25
    assert out["failure_counts"] == {"ConvergenceError": 17, "SingularJacobianError": 8}
    assert list(out["failure_counts"]) == sorted(out["failure_counts"])
    assert len(out["failure_reasons"]) == 20
    assert _synthetic_result("mcs", 5, rows).to_dict()["failure_counts"] == {}


def test_pool_capped_at_cpu_count(monkeypatch):
    # a process pool starts all its workers at its first task, so the pool
    # and the chunk size use at most the CPUs this process may run on (the
    # CPU count where the platform cannot say); the fake starts nothing
    opened = []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            opened.append(("workers", max_workers))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, inputs, chunksize):
            opened.append(("chunk", chunksize))
            return []

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    ctx, _ = _small_ctx()
    with assessment.trace_pool(ctx, 5000) as trace:
        trace(list(range(240)), False)
    assert opened == [("workers", 3), ("chunk", 10)]  # 240 // (3 * 8)
    with assessment.trace_pool(ctx, 2) as trace:
        trace(list(range(240)), False)
    assert opened[-2:] == [("workers", 2), ("chunk", 15)]  # 240 // (2 * 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    with assessment.trace_pool(ctx, 5000) as trace:
        assert trace([], False) == []
    assert len(opened) == 4  # no pool opened on one allowed CPU of eight
    monkeypatch.delattr(os, "sched_getaffinity")
    with assessment.trace_pool(ctx, 5000) as trace:
        trace(list(range(240)), False)
    assert opened[-2:] == [("workers", 8), ("chunk", 3)]  # 240 // (8 * 8)


def test_ks_distance_matches_scipy():
    # scipy is the oracle; rounding to one decimal makes ties within and
    # across the two samples
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(4)
    long = assessment.KS_BLOCK_ROWS + 17  # points span blocks of the scan
    for n_a, n_b in ((20, 20), (37, 200), (200, 13), (1, 5), (50, 50),
                     (long, 3 * long), (20, long)):
        a = np.round(rng.normal(0.0, 1.0, n_a), 1)
        b = np.round(rng.normal(0.3, 1.2, n_b), 1)
        expect = ks_2samp(a, b, method="asymp").statistic
        assert ks_distance(a, b) == expect
        assert ks_distance(b, a) == expect
    assert ks_distance(a, a) == 0.0


def test_report_identical_at_one_and_two_workers(model, scenario_doc):
    blobs = []
    for workers in (1, 2):
        cfg = AssessmentConfig(
            method="all", mcs_samples=8, surrogate_samples=200, sparse_terms=31,
            seed=5, workers=workers,
        )
        blob = json.loads(run_assessment(model, scenario_doc, cfg).to_json())
        del blob["config"]["workers"]
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def _write_inputs(tmp_path, doc, scenario):
    fp = tmp_path / "feeder.json"
    sp = tmp_path / "scenario.json"
    fp.write_text(json.dumps(doc))
    sp.write_text(json.dumps(scenario))
    return fp, sp


def test_report_files_and_determinism(tmp_path):
    doc = two_bus_doc(v_min=0.90)
    doc["branches"][0]["ampacity_a"] = 600.0
    model = load_feeder(doc)
    cfg = AssessmentConfig(
        method="all", mcs_samples=16, surrogate_samples=64, sparse_terms=2,
        seed=7, dump_trace=True,
    )
    rep = run_assessment(model, _small_scenario(), cfg)
    rep2 = run_assessment(load_feeder(doc), _small_scenario(), cfg)
    assert rep.to_json() == rep2.to_json()  # same seed, byte-identical report
    assert "wall_clock" not in rep.to_json()  # timing never serialized

    blob = json.loads(rep.to_json())
    assert set(blob["methods"]) == {"mcs", "pce", "spce"}
    assert blob["methods"]["mcs"]["eval_count"] == 16
    assert blob["input_dimension"] == 1
    det = blob["deterministic_adc"]
    assert det["adc_mw"]["thermal"] < det["adc_mw"]["voltage"] < det["adc_mw"]["collapse"]
    assert det["binding_class"] == "thermal"
    assert det["binding"]["voltage"] == "r.a:lower"
    assert det["binding"]["thermal"] == "ln"

    written = write_outputs(rep, tmp_path / "out")
    names = {p.name for p in written}
    expect = {"report.json", "report.md", "comparison.csv", "pv_curve.csv"}
    expect |= {
        f"cdf_{cls}_{m}.csv"
        for cls in ("voltage", "thermal", "collapse", "overall")
        for m in ("mcs", "pce", "spce")
    }
    assert names == expect
    for p in written:
        assert p.exists() and p.stat().st_size > 0
    md = (tmp_path / "out" / "report.md").read_text()
    assert "wall clock" in md  # timing lives in the human-readable report only

    # cdf files: sorted samples, probabilities ending at 1
    lines = (tmp_path / "out" / "cdf_voltage_mcs.csv").read_text().strip().splitlines()
    assert lines[0] == "adc_mw,cumulative_probability"
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    ps = [float(l.split(",")[1]) for l in lines[1:]]
    assert xs == sorted(xs) and len(xs) == 16
    assert ps[-1] == 1.0

    curve = (tmp_path / "out" / "pv_curve.csv").read_text().strip().splitlines()
    assert curve[0] == "lambda,min_vm_pu,max_branch_loading"
    assert len(curve) > 3


def test_cdf_files_match_the_row_by_row_writer(tmp_path):
    rep = run_assessment(
        load_feeder(two_bus_doc(v_min=0.90)), _small_scenario(),
        AssessmentConfig(method="mcs", mcs_samples=1, seed=0),
    )
    rng = np.random.default_rng(8)
    samples = {
        "voltage": np.repeat(rng.random(40) * 3.0, 3),  # every value tied
        "thermal": np.concatenate([rng.lognormal(0.0, 4.0, 997), [0.0, 0.0, 1e-300]]),
        "collapse": np.array([2.5]),
    }
    samples["overall"] = np.minimum(samples["voltage"][:1], samples["collapse"])
    rep.results["pce"] = MethodResult(
        "pce", 3, {k: chaos.sample_moments(v) for k, v in samples.items()},
        {}, "",
    )
    # a sample count whose file spans three write blocks, the last partly
    long = rng.normal(1.0, 0.3, (4, 2 * CDF_BLOCK_ROWS + 5))
    rep.results["spce"] = MethodResult(
        "spce", 3, {k: chaos.sample_moments(v) for k, v in zip(samples, long)},
        {}, "",
    )
    write_outputs(rep, tmp_path / "out")
    for name in ("mcs", "pce", "spce"):
        for cls, stats in rep.results[name].classes.items():
            ref = tmp_path / f"ref_{cls}_{name}.csv"
            write_cdf_rows(ref, stats.samples)
            got = (tmp_path / "out" / f"cdf_{cls}_{name}.csv").read_bytes()
            assert got == ref.read_bytes(), (cls, name)
    assert len((tmp_path / "out" / "cdf_collapse_mcs.csv").read_text().splitlines()) == 2


def test_no_trace_dump_no_curve_file(tmp_path):
    ctx_doc = two_bus_doc(v_min=0.90)
    model = load_feeder(ctx_doc)
    cfg = AssessmentConfig(method="mcs", mcs_samples=6, seed=0)
    rep = run_assessment(model, _small_scenario(), cfg)
    written = write_outputs(rep, tmp_path)
    names = {p.name for p in written}
    assert "pv_curve.csv" not in names
    assert "comparison.csv" not in names  # nothing to compare a lone method to


def test_cli_run_success(tmp_path):
    doc = two_bus_doc(v_min=0.90)
    doc["branches"][0]["ampacity_a"] = 600.0
    fp, sp = _write_inputs(tmp_path, doc, _small_scenario())
    out = tmp_path / "out"
    rc = cli_main([
        "run", "--feeder", str(fp), "--scenario", str(sp),
        "--method", "all", "--samples", "12", "--sparse-terms", "2",
        "--seed", "1", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "report.json").exists()


def test_cli_exit_code_bad_input(tmp_path):
    sp = tmp_path / "scenario.json"
    sp.write_text(json.dumps(_small_scenario()))
    rc = cli_main([
        "run", "--feeder", str(tmp_path / "missing.json"), "--scenario", str(sp),
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 1

    fp = tmp_path / "feeder.json"
    fp.write_text("{not json")
    rc = cli_main([
        "run", "--feeder", str(fp), "--scenario", str(sp), "--out", str(tmp_path / "out"),
    ])
    assert rc == 1

    doc = two_bus_doc(v_min=0.90)
    fp.write_text(json.dumps(doc))
    rc = cli_main([
        "run", "--feeder", str(fp), "--scenario", str(sp),
        "--sparse-terms", "many", "--out", str(tmp_path / "out"),
    ])
    assert rc == 1


def test_cli_exit_code_infeasible_base(tmp_path, capsys):
    # 1000 kW through x = 0.3 pu sags the receiving end to ~0.949 < 0.96
    doc = two_bus_doc(p_kw=1000.0, v_min=0.96)
    fp, sp = _write_inputs(tmp_path, doc, _small_scenario())
    rc = cli_main([
        "run", "--feeder", str(fp), "--scenario", str(sp),
        "--method", "mcs", "--samples", "4", "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert rc == 2
    # the node is named the way reports name it
    assert len(err.splitlines()) == 1 and "voltage_lower at r.a" in err


def test_cli_unwritable_output_exits_1_with_one_line(tmp_path, capsys):
    fp, sp = _write_inputs(tmp_path, two_bus_doc(v_min=0.90), _small_scenario())
    out = tmp_path / "out"
    (out / "cdf_voltage_mcs.csv").mkdir(parents=True)  # a directory, not a file
    rc = cli_main([
        "run", "--feeder", str(fp), "--scenario", str(sp),
        "--method", "mcs", "--samples", "4", "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write outputs: ")


def test_zero_direction_realizations_count_as_failed_traces():
    # a load of mean 20 kW and std 40 kW is clamped at zero in about a third
    # of the draws, and a realization with no load growth has no direction
    model = load_feeder(two_bus_doc(v_min=0.90))
    cfg = dict(method="mcs", mcs_samples=20, seed=0)
    texts = []
    for workers in (1, 2):
        rep = run_assessment(
            model, _small_scenario(mean_kw=20.0, std_kw=40.0),
            AssessmentConfig(**cfg, workers=workers),
        )
        mcs = rep.results["mcs"]
        assert mcs.failures > 0 and mcs.eval_count == 20
        assert mcs.to_dict()["failure_counts"] == {"ZeroDirectionError": mcs.failures}
        texts.append(rep.to_json())
    assert texts[1] == texts[0].replace('"workers": 1', '"workers": 2')


def test_cli_exit_code_numerical_failure(tmp_path):
    # 1000 kW + 800 kvar through x = 0.3 pu has no power-flow solution
    # (negative discriminant), so the base solve itself diverges
    doc = two_bus_doc(p_kw=1000.0, q_kvar=800.0, v_min=0.01)
    fp, sp = _write_inputs(tmp_path, doc, _small_scenario())
    rc = cli_main([
        "run", "--feeder", str(fp), "--scenario", str(sp),
        "--method", "mcs", "--samples", "4", "--out", str(tmp_path / "out"),
    ])
    assert rc == 3


@pytest.mark.parametrize("fault, workers", [
    ("raise", "1"), ("raise", "2"), ("exit", "2"),
])
def test_cli_unexpected_error_in_one_realization_exits_3_with_one_line(
    tmp_path, capsys, monkeypatch, fault, workers
):
    # a fault that is not a per-trace failure ends the run with one line:
    # raised in this process, raised in a pool worker, or a worker that dies
    scenario = _small_scenario()
    fp, sp = _write_inputs(tmp_path, two_bus_doc(v_min=0.90), scenario)
    registry = build_registry(load_feeder(two_bus_doc(v_min=0.90)), scenario)
    target = stochastic.sample_inputs(
        registry.distributions(), 4, [0, assessment._STREAM_MCS])[2]
    assemble = stochastic.assemble_variation

    def faulty(u, reg):
        if np.array_equal(u, target):
            if fault == "exit":
                os._exit(1)
            raise KeyError("injected")
        return assemble(u, reg)

    monkeypatch.setattr(stochastic, "assemble_variation", faulty)
    rc = cli_main([
        "run", "--feeder", str(fp), "--scenario", str(sp), "--method", "mcs",
        "--samples", "4", "--workers", workers, "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert len(err.splitlines()) == 1
    if fault == "exit":
        assert err.startswith("internal error: BrokenProcessPool: ")
    else:
        assert err == "internal error: KeyError: 'injected'\n"


def test_cli_convergence_error_in_one_realization_is_one_counted_failed_trace(
    tmp_path, capsys, monkeypatch
):
    # a per-trace failure in one realization fails that trace only: the
    # other traces and exit 0 hold, and the report does not depend on the
    # worker count
    from adcap.errors import ConvergenceError

    scenario = _small_scenario()
    fp, sp = _write_inputs(tmp_path, two_bus_doc(v_min=0.90), scenario)
    registry = build_registry(load_feeder(two_bus_doc(v_min=0.90)), scenario)
    target = stochastic.assemble_variation(stochastic.sample_inputs(
        registry.distributions(), 4, [0, assessment._STREAM_MCS])[2], registry)
    trace = continuation.trace_adc

    def faulty(case, variation, memo=None):
        if variation == target:
            raise ConvergenceError("injected")
        return trace(case, variation, memo=memo)

    monkeypatch.setattr(continuation, "trace_adc", faulty)
    texts = []
    for workers in ("1", "2"):
        out = tmp_path / f"out{workers}"
        rc = cli_main([
            "run", "--feeder", str(fp), "--scenario", str(sp), "--method", "mcs",
            "--samples", "4", "--workers", workers, "--out", str(out),
        ])
        assert (rc, capsys.readouterr().err) == (0, "")
        mcs = json.loads((out / "report.json").read_text())["methods"]["mcs"]
        assert mcs["failures"] == 1 and mcs["eval_count"] == 4
        assert mcs["failure_counts"] == {"ConvergenceError": 1}
        texts.append((out / "report.json").read_text())
    assert texts[1] == texts[0].replace('"workers": 1', '"workers": 2')


def test_cli_no_free_magnitude_exits_3_with_one_line(tmp_path, capsys):
    # every non-slack magnitude is voltage-controlled, so the continuation
    # cannot pin one to pass the fold
    fp, sp = _write_inputs(
        tmp_path, pv_two_bus_doc(), _small_scenario(mean_kw=500.0, std_kw=10.0, pf=1.0)
    )
    rc = cli_main([
        "run", "--feeder", str(fp), "--scenario", str(sp),
        "--method", "mcs", "--samples", "4", "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert rc == 3
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")


def _wind_without_mean_speed():
    scenario = _small_scenario()
    scenario["wind"] = [{
        "bus": "r", "phases": "a", "p_rated_kw": 100.0, "v_cut_in": 3.0,
        "v_rated": 12.0, "v_cut_out": 25.0, "std_speed": 1.0,
    }]
    return scenario


def _solar_on_phases(phases, p_rated_kw=50.0):
    scenario = _small_scenario()
    scenario["solar"] = [{
        "bus": "r", "phases": phases, "p_rated_kw": p_rated_kw, "r_certain": 150.0,
        "r_standard": 1000.0, "mean_radiation": 500.0, "std_radiation": 25.0,
    }]
    return scenario


def _wind_with(**fields):
    scenario = _small_scenario()
    scenario["wind"] = [{
        "bus": "r", "phases": "a", "p_rated_kw": 100.0, "v_cut_in": 3.0,
        "v_rated": 12.0, "v_cut_out": 25.0, "mean_speed": 10.0, "std_speed": 1.0, **fields,
    }]
    return scenario


def _with_generator(**fields):
    doc = two_bus_doc(v_min=0.90)
    doc["generators"].append({"id": "g", "bus": "r", "phases": "a", "type": "pq", **fields})
    return doc


def _pv_generator_set_at(v0_pu):
    doc = pv_two_bus_doc()
    doc["generators"][0]["v0_pu"] = v0_pu
    return doc


def _line_with(**fields):
    doc = two_bus_doc(v_min=0.90)
    doc["branches"][0].update(fields)
    return doc


def _pv_bus_without_generator():
    doc = pv_two_bus_doc()
    doc["generators"] = []
    return doc


def _transformer_with_tap(tap):
    return _line_with(kind="transformer", tap={"a": tap})


def _ill_conditioned_line():
    # invertible, but its condition number is about 4e13
    doc = _line_with(phases="ab", r_ohm=[[1.0, 1.0], [1.0, 1.0 + 1e-13]],
                     x_ohm=[[0.0, 0.0], [0.0, 0.0]], b_shunt_s=[[0.0, 0.0], [0.0, 0.0]])
    for bus in doc["buses"]:
        bus["phases"] = "ab"
    return doc


def _delta_wye_with_two_taps():
    doc = delta_wye_doc()
    doc["branches"][0]["tap"] = {"a": 1.0, "b": 1.05, "c": 1.0}
    return doc


def _slack_only():
    doc = two_bus_doc(v_min=0.90)
    doc["buses"] = doc["buses"][:1]
    doc["branches"] = doc["loads"] = []
    return doc


@pytest.mark.parametrize(
    "doc, scenario, message, flags",
    [
        (two_bus_doc(x_ohm=0.0, v_min=0.90), _small_scenario(), "singular series impedance", {}),
        (delta_wye_doc(x_mutual_ohm=0.2), _small_scenario(),
         "delta-wye requires uniform uncoupled leakage", {}),
        (two_bus_doc(v_min=0.90), _wind_without_mean_speed(), "missing field 'mean_speed'", {}),
        (two_bus_doc(v_min=0.90), _small_scenario(std_kw=math.nan), "must be finite", {}),
        (two_bus_doc(v_min=0.90), _small_scenario(mean_kw="abc"), "field 'mean_kw' has wrong type", {}),
        (two_bus_doc(v_min=0.90), _small_scenario(mean_kw=None), "field 'mean_kw' has wrong type", {}),
        (two_bus_doc(v_min=0.90), _solar_on_phases("x"), "unknown phase 'x'", {}),
        (_with_generator(p_kw="abc"), _small_scenario(), "field 'p_kw' has wrong type", {}),
        (_transformer_with_tap("x"), _small_scenario(), "tap: field 'a' has wrong type", {}),
        (two_bus_doc(v_min=0.90), _small_scenario(pf=1.5), "bad power factor", {}),
        ([two_bus_doc(v_min=0.90)], _small_scenario(), "document must be a JSON object", {}),
        (two_bus_doc(v_min=0.90), [_small_scenario()], "scenario must be a JSON object", {}),
        (_slack_only(), {}, "no bus besides the slack bus", {}),
        (two_bus_doc(v_min=0.90), _small_scenario(), "--sparse-terms must be",
         {"--sparse-terms": "92"}),
        (two_bus_doc(v_min=0.90), _small_scenario(), "--sparse-terms must be",
         {"--sparse-terms": "0"}),
        (two_bus_doc(v_min=0.90), _small_scenario(), "--sparse-terms must be",
         {"--sparse-terms": "-3"}),
        (two_bus_doc(v_min=0.90), _small_scenario(), "argument --samples: invalid int value",
         {"--samples": "abc"}),
        (two_bus_doc(v_min=0.90), _small_scenario(), "arguments are required: --scenario",
         {"--scenario": None}),
        (two_bus_doc(v_min=0.90), _small_scenario(), "cannot create the output directory",
         {"--out": "feeder.json/out"}),
        (two_bus_doc(v_min=0.90), _small_scenario(), "seed must be >= 0", {"--seed": "-1"}),
        (two_bus_doc(v_min=0.90), _solar_on_phases("abc"),
         "solar at 'r': phase 'b' absent at bus", {}),
        (_with_generator(type="pv", v0_pu=1.0, q_kvar=80.0), _small_scenario(),
         "generator 'g': pv generator on pq bus 'r'", {}),
        (_pv_generator_set_at(1.05), _small_scenario(),
         "generator 'g': v0_pu 1.05 differs from bus 'r' v0_pu 1.0", {}),
        (two_bus_doc(v_min=0.90), _wind_with(p_rated_kw=-100.0),
         "wind at 'r': p_rated_kw must be positive", {}),
        (two_bus_doc(v_min=0.90), _solar_on_phases("a", p_rated_kw=-50.0),
         "solar at 'r': p_rated_kw must be positive", {}),
        *[(two_bus_doc(v_min=0.90), {}, "scenario: no wind, solar or stochastic load",
           {"--method": method}) for method in ("mcs", "pce", "spce", "all")],
        (_line_with(ampacity_a=True), _small_scenario(),
         "branch 'ln': field 'ampacity_a' has wrong type", {}),
        (two_bus_doc(v_min=0.90), _small_scenario(mean_kw=True),
         "field 'mean_kw' has wrong type", {}),
        (_line_with(r_ohm=[["0.1"]]), _small_scenario(),
         "branch 'ln': 'r_ohm' must be a matrix of numbers", {}),
        (_line_with(r_ohm=[[True]]), _small_scenario(),
         "branch 'ln': 'r_ohm' must be a matrix of numbers", {}),
        (_line_with(b_shunt_s=[[math.inf]]), _small_scenario(),
         "branch 'ln': 'b_shunt_s' must be finite", {}),
        (_line_with(r_ohm=[[math.nan]]), _small_scenario(),
         "branch 'ln': 'r_ohm' must be finite", {}),
        (_pv_bus_without_generator(), _small_scenario(),
         "bus 'r': pv phase 'a' has no pv generator", {}),
        (_ill_conditioned_line(), _small_scenario(),
         "branch 'ln': ill-conditioned series impedance block", {}),
        (_delta_wye_with_two_taps(), _small_scenario(),
         "branch 'xf': delta-wye requires a single tap value", {}),
        (two_bus_doc(v_min=0.90), _wind_with(std_speed=-1.0),
         "std_dev must be nonnegative", {}),
        (two_bus_doc(v_min=0.90), _wind_with(v_cut_in=12.0),
         "wind at 'r': require v_cut_in < v_rated < v_cut_out", {}),
        (two_bus_doc(v_min=0.90), _wind_with(power_factor=0.0),
         "wind at 'r': bad power factor", {}),
    ],
    ids=[
        "singular-impedance", "coupled-delta-wye", "wind-without-mean-speed", "nan-std",
        "string-mean-kw", "null-mean-kw", "solar-phase-letter", "string-generator-p-kw",
        "string-tap", "load-power-factor-above-1", "feeder-not-object", "scenario-not-object",
        "slack-bus-only", "sparse-terms-above-basis", "sparse-terms-zero",
        "sparse-terms-negative", "samples-not-int", "scenario-missing", "out-under-a-file",
        "seed-negative", "solar-phase-absent-at-bus", "pv-generator-on-pq-bus",
        "pv-generator-set-point-off-bus", "wind-rated-negative", "solar-rated-negative",
        "empty-scenario-mcs", "empty-scenario-pce", "empty-scenario-spce", "empty-scenario-all",
        "boolean-ampacity", "boolean-mean-kw", "string-matrix-entry", "boolean-matrix-entry",
        "infinite-matrix-entry", "nan-matrix-entry",
        "pv-bus-without-generator", "ill-conditioned-impedance", "delta-wye-two-taps",
        "wind-std-negative", "wind-cut-in-at-rated", "wind-power-factor-zero",
    ],
)
def test_cli_bad_input_exits_1_with_one_line(
    tmp_path, capsys, monkeypatch, doc, scenario, message, flags
):
    # bad input is rejected before the base case is solved or any trace runs
    ran = []
    for name in ("solve_base_case", "trace_adc"):
        monkeypatch.setattr(continuation, name, lambda *a, _n=name, **k: ran.append(_n))
    fp, sp = _write_inputs(tmp_path, doc, scenario)
    monkeypatch.chdir(tmp_path)  # relative paths in ``flags`` start at fp's folder
    # ``flags`` overrides the arguments below; None leaves a flag out
    args = {"--feeder": str(fp), "--scenario": str(sp), "--method": "mcs",
            "--samples": "4", "--out": str(tmp_path / "out"), **flags}
    rc = cli_main(["run", *(t for k, v in args.items() if v is not None for t in (k, v))])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err
    assert not ran


@pytest.mark.parametrize("flag", ["--feeder", "--scenario"])
@pytest.mark.parametrize(
    "raw, message",
    [(bytes(range(56, 256)), "can't decode byte"),
     (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded")],
    ids=["not-utf8", "nested-too-deep"],
)
def test_cli_unreadable_input_file_exits_1_with_one_line(tmp_path, capsys, flag, raw, message):
    fp, sp = _write_inputs(tmp_path, two_bus_doc(v_min=0.90), _small_scenario())
    {"--feeder": fp, "--scenario": sp}[flag].write_bytes(raw)
    rc = cli_main([
        "run", "--feeder", str(fp), "--scenario", str(sp),
        "--method", "mcs", "--samples", "4", "--out", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot read inputs: ")
    assert message in err


@pytest.mark.parametrize("terms", ["16", "19", "37", "45", "61", "90"])
def test_cli_sparse_terms_on_a_singular_gram_matrix(tmp_path, capsys, terms):
    # at 16 and 19 rows LARS meets a Gram matrix of its active columns that
    # np.linalg.solve accepts but whose 1' G^-1 1 is not positive; the
    # column is left out.  From 37 rows on the density-ranked candidates are
    # no longer independent (the first 45 span rank 36, the first 90 rank
    # 60), and the design skips each that adds no rank.  Every class fits
    # its full term budget
    rc = cli_main([
        "run", "--feeder", str(DATA / "ieee13_mod.json"),
        "--scenario", str(DATA / "scenario_ieee13.json"), "--method", "spce",
        "--samples", "200", "--sparse-terms", terms, "--out", str(tmp_path / "out"),
    ])
    assert (rc, capsys.readouterr().err) == (0, "")
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["methods"]["spce"]["diagnostics"]["terms"] == {
        cls: int(terms) for cls in ("voltage", "thermal", "collapse")
    }


def test_sparse_terms_checked_against_the_basis_size():
    k_full = chaos.basis_size(12, chaos.ORDER)
    for terms in ("auto", 1, k_full):
        AssessmentConfig(sparse_terms=terms).check_dimension(12)
    for terms in (0, -3, k_full + 1, "all"):
        with pytest.raises(ConfigurationError, match=f"basis size {k_full}, got {terms}"):
            AssessmentConfig(sparse_terms=terms).check_dimension(12)


def test_report_delta_of_a_tree_against_itself_is_zero():
    # scripts/report_delta.py compares every refactor's outputs; pin its output
    src = str(REPO / "src")
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "report_delta.py"), src, src, "--samples", "2"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    assert out.splitlines() == [
        f"{config}: 0 of {files} files differ" for config, files in [
            ("--method all --sparse-terms 31 --workers 1", 16),
            ("--method all --sparse-terms 31 --workers 2", 16),
            ("--method all --sparse-terms auto --workers 1", 16),
            ("--method all --sparse-terms auto --workers 2", 16),
            ("--method spce --sparse-terms 31", 7),
            ("--method pce", 7),
        ]
    ]


def test_report_delta_names_each_differing_file_and_skips_wall_clock_lines(tmp_path):
    import runpy

    script = runpy.run_path(str(REPO / "scripts" / "report_delta.py"))
    old, new = tmp_path / "old", tmp_path / "new"
    for d, wall, cdf in ((old, "1.0", "1,0.5\n"), (new, "2.5", "1,0.25\n")):
        d.mkdir()
        (d / "report.md").write_text(f"# r\n- wall clock: {wall} s\n| a |\n")
        (d / "report.json").write_text("{}\n")
        (d / "cdf_voltage_mcs.csv").write_text(cdf)
    (new / "pv_curve.csv").write_text("lambda\n")
    assert script["differing_files"](old, new) == ["cdf_voltage_mcs.csv", "pv_curve.csv"]
    (new / "report.md").write_text("# r\n- wall clock: 2.5 s\n| b |\n")
    assert "report.md" in script["differing_files"](old, new)
    assert script["differing_files"](old, old) == []


def _modules_after_cli_import(expression):
    """``expression`` over ``sys.modules`` in a fresh interpreter that has
    imported ``adcap.cli`` and ``adcap.report`` from this checkout."""
    code = f"import sys, adcap.cli, adcap.report; print({expression})"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_and_report_import_without_scipy():
    # scipy is a test-only dependency: the program must not load it
    expression = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    assert _modules_after_cli_import(expression) == "[]"


def test_cli_and_report_import_without_the_process_pool():
    # only a run of more than one worker loads concurrent.futures and with it
    # multiprocessing, so a serial run does not pay for their import
    assert _modules_after_cli_import("'concurrent.futures' in sys.modules") == "False"


def _declared_entry_point(name):
    """(module, attribute) of console script ``name`` as the project declares it.

    Read from ``[project.scripts]`` in the checkout's ``pyproject.toml``; on
    Python 3.10, which has no ``tomllib``, from an installed adcap's metadata.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        from importlib.metadata import entry_points

        found = entry_points(group="console_scripts", name=name)
        if not found:
            pytest.importorskip("tomllib")
        target = next(iter(found)).value
    else:
        with open(REPO / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return module.strip(), attr.strip()


def test_cli_console_script(tmp_path):
    # Run the declared ``adc`` entry point the way pip's generated wrapper
    # does, in a fresh process, against this checkout's ``src`` (no install).
    module, attr = _declared_entry_point("adc")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    doc = two_bus_doc(v_min=0.90)
    fp, sp = _write_inputs(tmp_path, doc, _small_scenario())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "run", "--feeder", str(fp), "--scenario", str(sp),
         "--method", "mcs", "--samples", "8", "--out", str(out)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, f"{module}:{attr} exited {proc.returncode}\n{proc.stderr}"
    assert "deterministic ADC" in proc.stdout
    assert (out / "report.md").exists()
