import json
import math

import numpy as np
import pytest

from adcap.continuation import (
    LAMBDA_CAP,
    check_limits,
    correct,
    predict_secant,
    predict_tangent,
    solve_base_case,
    trace_adc,
)
from adcap.errors import (
    ConvergenceError,
    InfeasibleBaseCaseError,
    SingularJacobianError,
    ZeroDirectionError,
)
from adcap.feeder import load_feeder
from adcap.powerflow import MAX_ITER, NetworkCase, solve
from adcap.stochastic import VariationVector, assemble_variation, build_registry

from conftest import pv_two_bus_doc, two_bus_doc
from oracles import to_document


# -- predictor/corrector primitives ---------------------------------------------


def test_corrector_exact_on_linear_system():
    # residual A z = b is linear, so one Newton step lands exactly
    rng = np.random.default_rng(1)
    m = 5
    a = rng.uniform(-1, 1, (m, m + 1)) + np.eye(m, m + 1) * 3.0
    b = rng.uniform(-1, 1, m)
    z_true = np.linalg.lstsq(a, b, rcond=None)[0]

    def linearize(z, pin):
        return a @ z - b, lambda: np.delete(a, pin, axis=1)

    z0 = z_true + rng.uniform(-0.5, 0.5, m + 1)
    z0[2] = z_true[2] + 0.0  # pinned coordinate must already be consistent
    z, iters, _ = correct(linearize, z0, pin=2)
    assert iters <= 2
    assert np.allclose(a @ z, b, atol=1e-10)
    assert z[2] == pytest.approx(z0[2])  # pinned coordinate untouched


def test_secant_prediction_extrapolates():
    z0 = np.array([1.0, 2.0, 0.0])
    z1 = np.array([1.5, 2.5, 0.5])
    zp = predict_secant(z0, z1, h=0.25, param_index=2)
    assert zp[2] == pytest.approx(0.75)
    assert zp[0] == pytest.approx(1.75)
    assert zp[1] == pytest.approx(2.75)


def test_tangent_prediction_on_linear_curve():
    # residuals z0 + 2 z1 - 3 lam and z1 - lam define the line z = (lam, lam)
    a = np.array([[1.0, 2.0, -3.0], [0.0, 1.0, -1.0]])
    z = np.zeros(3)
    zp = predict_tangent(a, z, h=0.2, param_index=2)
    assert zp[2] == pytest.approx(0.2)
    assert np.allclose(a @ zp, 0.0, atol=1e-12)
    assert zp[0] == pytest.approx(0.2) and zp[1] == pytest.approx(0.2)


# -- two-bus analytic benchmarks --------------------------------------------------


def _two_bus_case(p_dir_kw, q_dir_kvar, x_ohm=0.3, v_min=0.01):
    doc = two_bus_doc(p_kw=0.0, q_kvar=0.0, x_ohm=x_ohm, v_min=v_min)
    doc["generators"].append({
        "id": "growth", "bus": "r", "phases": "a", "type": "pq",
        "delta_p_kw": -p_dir_kw, "delta_q_kvar": -q_dir_kvar,
    })
    model = load_feeder(doc)
    case = NetworkCase(model)
    reg = build_registry(model, {})
    var = assemble_variation(reg.mean_inputs(), reg)
    return case, var, model


def test_two_bus_nose_matches_closed_form():
    # lossless link, direction (P, Q): fold at E^2 (sqrt(P^2+Q^2) - Q)/(2 x P^2)
    p, q, x = 1.0, 0.2, 0.3
    case, var, model = _two_bus_case(1000.0 * p, 1000.0 * q, x_ohm=x)
    lam_star = (math.sqrt(p * p + q * q) - q) / (2 * x * p * p)
    res = trace_adc(case, var)
    assert res.lambdas["collapse"] == pytest.approx(lam_star, rel=1e-3)
    assert res.adc_mw["collapse"] == pytest.approx(lam_star * 1.0, rel=1e-3)
    assert res.binding_class in ("collapse", "voltage")


def test_two_bus_voltage_crossing_matches_quadratic():
    # with y = v_min^2, the crossing solves
    #   y^2 + y (2 lam q x - 1) + lam^2 x^2 (p^2 + q^2) = 0
    p, q, x, vmin = 1.0, 0.2, 0.3, 0.9
    case, var, model = _two_bus_case(1000.0 * p, 1000.0 * q, x_ohm=x, v_min=vmin)
    y = vmin * vmin
    aa = x * x * (p * p + q * q)
    bb = 2 * q * x * y
    cc = y * y - y
    lam_v = (-bb + math.sqrt(bb * bb - 4 * aa * cc)) / (2 * aa)
    res = trace_adc(case, var)
    assert res.lambdas["voltage"] == pytest.approx(lam_v, rel=1e-4)
    assert res.binding_element["voltage"] == ("lower", ("r", "a"))
    assert res.binding_class == "voltage"
    assert res.lambdas["voltage"] < res.lambdas["collapse"]


def test_two_bus_thermal_crossing_refined_to_margin():
    p, q, x = 1.0, 0.2, 0.3
    case, var, model = _two_bus_case(1000.0 * p, 1000.0 * q, x_ohm=x)
    # rate the line at its current partway up the curve, then the trace must
    # report the crossing there; i_base is 1 MVA / (1 kV phase) = 1000 A
    lam_probe = 0.6
    st = solve(case, lam_probe, case.direction_arrays(var))
    i_r = case.index[("r", "a")]
    v = st.vm[i_r] * np.exp(1j * st.theta[i_r])
    i_pu = abs((st.vm[0] * np.exp(1j * st.theta[0]) - v) / (1j * x))
    doc = to_document(model)
    doc["branches"][0]["ampacity_a"] = i_pu * 1000.0
    model2 = load_feeder(doc)
    case2 = NetworkCase(model2)
    res = trace_adc(case2, var)
    assert res.lambdas["thermal"] == pytest.approx(lam_probe, rel=1e-4)
    assert res.binding_element["thermal"] == "ln"


def test_infeasible_base_raises():
    doc = two_bus_doc(p_kw=600.0, q_kvar=300.0, x_ohm=0.3, v_min=0.95)
    model = load_feeder(doc)
    case = NetworkCase(model)
    doc["generators"] = [{"id": "g", "bus": "r", "phases": "a", "type": "pq",
                          "delta_p_kw": -100.0, "delta_q_kvar": 0.0}]
    model2 = load_feeder(doc)
    reg = build_registry(model2, {})
    var = assemble_variation(reg.mean_inputs(), reg)
    with pytest.raises(InfeasibleBaseCaseError) as exc:
        trace_adc(NetworkCase(model2), var)
    assert ("r", "a") in [el for _, el, _ in exc.value.violations]


def test_zero_direction_rejected(case):
    with pytest.raises(ZeroDirectionError):
        trace_adc(case, VariationVector(dp_kw={}, dq_kvar={}, load_increase_kw=0.0))


def test_lambda_cap_flags_result():
    # direction so small the fold is beyond the cap
    case, var, model = _two_bus_case(50.0, 10.0, x_ohm=0.3)
    res = trace_adc(case, var)
    assert res.capped
    assert res.lambdas["collapse"] == pytest.approx(LAMBDA_CAP)


def test_no_free_magnitude_to_pin_raises_convergence_error():
    # the receiving end is voltage-controlled without reactive limits, so
    # natural steps stall at the angle limit and local parameterization has
    # no magnitude to pin
    model = load_feeder(pv_two_bus_doc())
    reg = build_registry(model, {"loads_stochastic": [
        {"bus": "r", "phase": "a", "mean_kw": 500, "std_kw": 10, "power_factor": 1.0},
    ]})
    var = assemble_variation(reg.mean_inputs(), reg)
    with pytest.raises(ConvergenceError, match="no free voltage magnitude"):
        trace_adc(NetworkCase(model), var)


def test_check_limits_ignores_slack():
    doc = two_bus_doc(p_kw=0.0)
    doc["limits"] = {"v_min_pu": 0.2, "v_max_pu": 0.95}  # slack sits above vmax
    model = load_feeder(doc)
    case = NetworkCase(model)
    st = solve(case)
    status = check_limits(case, st)
    bad = status.violated()
    assert all(el != ("s", "a") for _, el, _ in bad)
    assert any(k == "voltage_upper" and el == ("r", "a") for k, el, _ in bad)


# -- bundled feeder integration ---------------------------------------------------


def test_bundled_crossing_sits_on_margin(case, model, registry):
    var = assemble_variation(registry.mean_inputs(), registry)
    res = trace_adc(case, var)
    lam_v = res.lambdas["voltage"]
    st = solve(case, lam_v, case.direction_arrays(var))
    i = case.index[("611", "c")]
    assert st.vm[i] == pytest.approx(0.90, abs=5e-6)
    assert res.binding_element["voltage"] == ("lower", ("611", "c"))


def test_bundled_nose_agrees_with_bisection_oracle(case, registry, model):
    var = assemble_variation(registry.mean_inputs(), registry)
    res = trace_adc(case, var)
    d = case.direction_arrays(var)

    def solvable(lam):
        try:
            solve(case, lam, d)
            return True
        except Exception:
            return False

    lo, hi = 0.0, res.lambdas["collapse"] * 1.6
    assert solvable(lo) and not solvable(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if solvable(mid):
            lo = mid
        else:
            hi = mid
    assert res.lambdas["collapse"] == pytest.approx(lo, rel=0.015)


def test_trace_switching_reactive_limit_agrees_with_bisection_oracle(feeder_doc, scenario_doc):
    # bus 675 held at 1 pu by a +-300 kvar pv generator: within its limits
    # at the base case, at its upper limit near the nose
    doc = json.loads(json.dumps(feeder_doc))
    next(b for b in doc["buses"] if b["id"] == "675").update(type="pv", v0_pu=1.0)
    doc["generators"].append({
        "id": "pv-675", "bus": "675", "phases": "abc", "type": "pv",
        "v0_pu": 1.0, "q_min_kvar": -300.0, "q_max_kvar": 300.0,
    })
    model = load_feeder(doc)
    case = NetworkCase(model)
    registry = build_registry(model, scenario_doc)
    var = assemble_variation(registry.mean_inputs(), registry)
    d = case.direction_arrays(var)
    assert not solve(case).q_switched
    res = trace_adc(case, var)

    def solvable(lam):
        try:
            solve(case, lam, d)
            return True
        except (ConvergenceError, SingularJacobianError):
            return False

    lo, hi = 0.0, res.lambdas["collapse"] * 1.6
    assert not solvable(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if solvable(mid):
            lo = mid
        else:
            hi = mid
    assert res.lambdas["collapse"] == pytest.approx(lo, rel=0.015)
    assert solve(case, lo, d).q_switched


def test_runaway_guard_regression(case, registry):
    # realizations that previously jumped onto the lower branch and reported
    # a fictitious fold far beyond the physical one
    from adcap.stochastic import sample_inputs

    us = sample_inputs(registry.distributions(), 30, [0, 0])
    for u in (us[20], us[24], us[28]):
        var = assemble_variation(u, registry)
        res = trace_adc(case, var)
        assert res.lambdas["collapse"] < 2.0
        assert not res.capped


def test_failed_march_steps_give_up_early(case, registry, monkeypatch):
    # the mean-input trace fails natural steps at the nose before it goes
    # local; the march retries them shorter, so each gives up at the first
    # rising mismatch instead of spending the whole Newton budget
    from adcap import powerflow

    failed = []
    solve_ = powerflow.solve

    def counting(*args, **kwargs):
        try:
            return solve_(*args, **kwargs)
        except ConvergenceError as exc:
            failed.append((kwargs.get("abort_on_rise", False), exc.iterations))
            raise

    monkeypatch.setattr(powerflow, "solve", counting)
    trace_adc(case, assemble_variation(registry.mean_inputs(), registry))
    assert failed and all(abort for abort, _ in failed)
    assert all(iters < MAX_ITER for _, iters in failed)


def test_base_case_converging_through_a_rising_mismatch():
    # 1.4 pu of load with 2.7 pu of reactive injection behind x = 0.3 pu:
    # from the flat start the mismatch max-norm rises in the first Newton
    # iteration (2.70 -> 2.71) and then falls to the upper-branch solution,
    # where V^4 - 2.62 V^2 + 0.8325 = 0 gives |V| = 1.5.  A march step would
    # give up there; the base case keeps the whole budget and solves it.
    case = NetworkCase(load_feeder(two_bus_doc(p_kw=1400.0, q_kvar=-2700.0)))
    with pytest.raises(ConvergenceError, match="diverging"):
        solve(case, abort_on_rise=True)
    state, _ = solve_base_case(case)
    assert state.vm[case.index[("r", "a")]] == pytest.approx(1.5, abs=1e-9)
    assert solve_base_case(case)[0] is state  # kept on the case


def test_curve_collection(case, registry, model):
    var = assemble_variation(registry.mean_inputs(), registry)
    res = trace_adc(case, var, collect_curve=True)
    assert len(res.curve) >= 5
    lams = [p.lam for p in res.curve]
    assert lams[0] == 0.0
    assert max(lams) >= res.lambdas["collapse"] * 0.8
    assert all(0 < p.min_vm <= 1.2 for p in res.curve)


def test_trace_memo_returns_the_stored_result_for_a_repeated_direction():
    case = NetworkCase(load_feeder(two_bus_doc(v_min=0.90)))
    var = VariationVector(dp_kw={("r", "a"): -100.0}, dq_kvar={("r", "a"): -40.0},
                          load_increase_kw=100.0)
    same = VariationVector(dict(var.dp_kw), dict(var.dq_kvar), 100.0)
    memo = {}
    first = trace_adc(case, var, memo=memo)
    assert len(memo) == 1
    assert trace_adc(case, same, memo=memo) is first
    # a curve the stored result lacks is traced, and then kept
    curved = trace_adc(case, same, collect_curve=True, memo=memo)
    assert curved is not first and curved.curve
    assert curved.lambdas == first.lambdas
    assert trace_adc(case, var, memo=memo) is curved
    # another direction is another entry; no memo traces every time
    trace_adc(case, VariationVector(var.dp_kw, var.dq_kvar, 200.0), memo=memo)
    assert len(memo) == 2
    assert trace_adc(case, var) is not trace_adc(case, var)
