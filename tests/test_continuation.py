import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adcap.continuation import (
    CLASSES,
    LAMBDA_CAP,
    check_limits,
    correct,
    interpolate,
    solve_base_case,
    tangent,
    trace_adc,
)
from adcap.errors import (
    ConvergenceError,
    InfeasibleBaseCaseError,
    SingularJacobianError,
    ZeroDirectionError,
)
from adcap.feeder import load_feeder
from adcap.powerflow import MAX_ITER, NetworkCase
from adcap.stochastic import VariationVector, assemble_variation, build_registry

from conftest import pv_two_bus_doc, two_bus_doc
from oracles import fold_lambda, solve_at, solve_tight, to_document


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
    zp = interpolate([(0.0, z0), (0.5, z1)], 0.75)
    assert zp[2] == pytest.approx(0.75)
    assert zp[0] == pytest.approx(1.75)
    assert zp[1] == pytest.approx(2.75)


def test_tangent_prediction_on_linear_curve():
    # residuals z0 + 2 z1 - 3 lam and z1 - lam define the line z = (lam, lam);
    # the bordered matrix's unit row makes lam the coordinate that moves by h
    a = np.array([[1.0, 2.0, -3.0], [0.0, 1.0, -1.0]])
    z = np.zeros(3)
    zp = interpolate([(0.0, z, tangent(np.vstack([a, [0.0, 0.0, 1.0]])))], 0.2)
    assert zp[2] == pytest.approx(0.2)
    assert np.allclose(a @ zp, 0.0, atol=1e-12)
    assert zp[0] == pytest.approx(0.2) and zp[1] == pytest.approx(0.2)


@pytest.mark.parametrize(
    "derivatives",
    [(True,), (False, False), (True, False), (False,) * 3, (True, False, False), (True, True)],
    ids=[
        "tangent", "secant", "tangent-and-two-points", "quadratic",
        "tangent-and-three-points", "cubic-hermite",
    ],
)
def test_each_predictor_is_exact_on_a_path_of_its_degree(derivatives):
    # the march predicts from the base tangent, the secant, the base tangent
    # with two or three points and the quadratic through three points in
    # lambda, a
    # voltage crossing starts from the quadratic through three points in the
    # held magnitude and a fold iterate from the cubic Hermite in eta: each
    # reproduces a vector polynomial path of the degree its nodes fix,
    # extrapolated or not
    rng = np.random.default_rng(7)
    degree = len(derivatives) + sum(derivatives) - 1
    coef = rng.uniform(-1.0, 1.0, (degree + 1, 5))

    def path(x):
        return sum(c * x ** k for k, c in enumerate(coef))

    def slope(x):
        return sum(k * c * x ** (k - 1) for k, c in enumerate(coef) if k)

    xs = (0.25, 0.75, 1.25)
    nodes = [(x, path(x), slope(x)) if d else (x, path(x)) for x, d in zip(xs, derivatives)]
    for x in (0.5, 1.0, 1.75, -0.5):
        assert np.allclose(interpolate(nodes, x), path(x), rtol=0.0, atol=1e-12)


def test_singular_tangent_system_raises_singular_jacobian_error():
    # a bare LinAlgError would escape the per-trace failure handling
    with pytest.raises(SingularJacobianError, match="singular"):
        tangent(np.vstack([np.zeros((2, 3)), [1.0, 0.0, 0.0]]))


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
    assert res.lambdas["collapse"] == pytest.approx(lam_star, rel=1e-6)
    assert res.adc_mw["collapse"] == pytest.approx(lam_star * 1.0, rel=1e-6)
    assert res.binding_class in ("collapse", "voltage")


@pytest.mark.parametrize("scale, base_only", [
    (1.0, False),
    (20.0, True),  # the fold (lambda 0.068) lies below STEP0
])
def test_fold_after_natural_failure_matches_two_bus_closed_form(monkeypatch, scale, base_only):
    # with STEP_MIN above STEP0 the first failed natural step halves the
    # step below the floor, before any secant turns steep, so the fold is
    # solved on that path, not on the first-failure attempt with fallback
    from adcap import continuation, powerflow

    p, q, x = scale, 0.2 * scale, 0.3
    case, var, _ = _two_bus_case(1000.0 * p, 1000.0 * q, x_ohm=x)
    lam_star = (math.sqrt(p * p + q * q) - q) / (2 * x * p * p)
    log = []  # of the solves with lambda pinned: the base case and the march
    solve_ = powerflow.solve

    def logged_solve(curve, z, node=None, **kwargs):
        if node is not None or curve.limit is not None:  # a fold iterate or crossing
            return solve_(curve, z, node, **kwargs)
        try:
            state = solve_(curve, z, node, **kwargs)
        except (ConvergenceError, SingularJacobianError):
            log.append("failed")
            raise
        log.append("solved")
        return state

    monkeypatch.setattr(powerflow, "solve", logged_solve)
    monkeypatch.setattr(continuation, "STEP_MIN", 0.2)
    res = trace_adc(case, var)
    assert log[-1] == "failed"
    assert (log.count("solved") == 1) == base_only
    assert res.lambdas["collapse"] == pytest.approx(lam_star, rel=1e-6)


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
    # the crossing state's margin, from the closed form at the trace's lambda
    lam = res.lambdas["voltage"]
    y_at = max(np.roots([1.0, 2 * lam * q * x - 1.0, lam * lam * aa]))
    assert abs(math.sqrt(y_at) - vmin) <= 1e-10
    assert res.binding_element["voltage"] == "r.a:lower"
    assert res.binding_class == "voltage"
    assert res.lambdas["voltage"] < res.lambdas["collapse"]


def test_two_bus_thermal_crossing_refined_to_margin():
    p, q, x = 1.0, 0.2, 0.3
    case, var, model = _two_bus_case(1000.0 * p, 1000.0 * q, x_ohm=x)
    # rate the line at its current partway up the curve, then the trace must
    # report the crossing there; i_base is 1 MVA / (1 kV phase) = 1000 A
    lam_probe = 0.6
    st = solve_at(case, lam_probe, case.direction_arrays(var))
    i_r = case.index[("r", "a")]
    v = st.vm[i_r] * np.exp(1j * st.theta[i_r])
    i_pu = abs((st.vm[0] * np.exp(1j * st.theta[0]) - v) / (1j * x))
    doc = to_document(model)
    doc["branches"][0]["ampacity_a"] = i_pu * 1000.0
    model2 = load_feeder(doc)
    case2 = NetworkCase(model2)
    res = trace_adc(case2, var)
    assert res.lambdas["thermal"] == pytest.approx(lam_probe, rel=1e-4)
    crossing = solve_tight(case2, res.lambdas["thermal"], case2.direction_arrays(var))
    assert abs(check_limits(case2, crossing).thermal_margin) <= 1e-10
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
    # natural steps stall at the angle limit and the fold has no magnitude
    # to pin
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
    st = solve_at(case)
    status = check_limits(case, st)
    bad = status.violated()
    assert all(el != ("s", "a") for _, el, _ in bad)
    assert any(k == "voltage_upper" and el == ("r", "a") for k, el, _ in bad)


# -- bundled feeder integration ---------------------------------------------------


def test_bundled_crossing_sits_on_margin(case, model, registry):
    var = assemble_variation(registry.mean_inputs(), registry)
    res = trace_adc(case, var)
    lam_v = res.lambdas["voltage"]
    st = solve_at(case, lam_v, case.direction_arrays(var))
    i = case.index[("611", "c")]
    assert st.vm[i] == pytest.approx(0.90, abs=5e-6)
    assert res.binding_element["voltage"] == "611.c:lower"


def test_bundled_nose_agrees_with_fold_oracle(case, registry):
    var = assemble_variation(registry.mean_inputs(), registry)
    lam = trace_adc(case, var).lambdas["collapse"]
    assert lam == pytest.approx(fold_lambda(case, case.direction_arrays(var), lam), rel=1e-7)


def test_trace_packs_each_accepted_point_once(case, registry, monkeypatch):
    # a point's z is its solve's; only the base point, solved on the
    # reduction no direction touches, is packed on the trace's curve, and
    # the mean-input trace never switches, so nothing else packs a point
    from adcap import powerflow

    solve_base_case(case)  # once per case, from its packed flat start
    packs = []
    pack = powerflow.Curve.pack

    def counting(self, state, lam):
        packs.append(lam)
        return pack(self, state, lam)

    monkeypatch.setattr(powerflow.Curve, "pack", counting)
    trace_adc(case, assemble_variation(registry.mean_inputs(), registry))
    assert packs == [0.0]


def _pv_675_trace(feeder_doc, scenario_doc):
    """``(case, variation)`` of the bundled feeder at its mean inputs with
    bus 675 held at 1 pu by a +-300 kvar pv generator: within its limits
    at the base case, phases c and a at their upper limit on the way up,
    and phase b at its lower limit at the fold, which the fold secant
    switches."""
    doc = json.loads(json.dumps(feeder_doc))
    next(b for b in doc["buses"] if b["id"] == "675").update(type="pv", v0_pu=1.0)
    doc["generators"].append({
        "id": "pv-675", "bus": "675", "phases": "abc", "type": "pv",
        "v0_pu": 1.0, "q_min_kvar": -300.0, "q_max_kvar": 300.0,
    })
    model = load_feeder(doc)
    registry = build_registry(model, scenario_doc)
    return NetworkCase(model), assemble_variation(registry.mean_inputs(), registry)


def test_trace_switching_reactive_limit_agrees_with_fold_oracle(feeder_doc, scenario_doc):
    case, var = _pv_675_trace(feeder_doc, scenario_doc)
    d = case.direction_arrays(var)
    assert not solve_at(case).q_switched
    lam = trace_adc(case, var).lambdas["collapse"]
    assert solve_at(case, 0.9 * lam, d).q_switched
    assert lam == pytest.approx(fold_lambda(case, d, lam), rel=1e-7)


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
    # the mean-input trace fails natural steps at the nose before it stops
    # to solve the fold; the march retries them shorter, so each gives up at
    # the first rising mismatch instead of spending the whole Newton budget
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


def test_n_newton_counts_every_corrector_iteration(model, registry, monkeypatch):
    # the mean-input trace fails natural steps at the nose: every Newton
    # iteration of every corrector run of the trace, converged or failed, is
    # in its n_newton; the base case, solved once per case before the trace,
    # is not
    from adcap import powerflow

    iterations = []

    def counting(correct_):
        def wrapped(*args, **kwargs):
            try:
                z, iters, norm = correct_(*args, **kwargs)
            except ConvergenceError as exc:
                iterations.append(("failed", exc.iterations))
                raise
            iterations.append(("converged", iters))
            return z, iters, norm

        return wrapped

    case = NetworkCase(model)
    solve_base_case(case)
    monkeypatch.setattr(powerflow, "correct", counting(powerflow.correct))
    res = trace_adc(case, assemble_variation(registry.mean_inputs(), registry))
    assert any(kind == "failed" for kind, _ in iterations)
    assert res.n_newton == sum(n for _, n in iterations)


def _fail_first_fold(monkeypatch):
    """Make the first corrector run of the first ``_Tracer._fold`` call
    raise ConvergenceError once it has converged.  Returns ``(iterations,
    folds, injected)``: the iterations of every corrector run, the ``h`` of
    every ``_fold`` call, and the iterations of the injected failure."""
    from adcap import continuation, powerflow

    iterations = []
    folds = []
    injected = []
    fold_ = continuation._Tracer._fold

    def fold(self, h):
        folds.append(h)
        return fold_(self, h)

    correct_ = powerflow.correct

    def counting(*args, **kwargs):
        try:
            z, iters, norm = correct_(*args, **kwargs)
        except ConvergenceError as exc:
            iterations.append(exc.iterations)
            raise
        iterations.append(iters)
        if len(folds) == 1 and not injected:  # the first fold's first run
            injected.append(iters)
            raise ConvergenceError("injected fold failure", iterations=iters)
        return z, iters, norm

    monkeypatch.setattr(continuation._Tracer, "_fold", fold)
    monkeypatch.setattr(powerflow, "correct", counting)
    return iterations, folds, injected


def test_failed_fold_attempt_falls_back_to_halving(model, registry, monkeypatch):
    # the fold attempt at the mean-input trace's first failed natural step
    # fails in its first corrector run: the march halves on and solves the
    # fold once more, and the failed run's iterations stay in n_newton
    case = NetworkCase(model)
    solve_base_case(case)  # once per case, not counted by the trace
    iterations, folds, injected = _fail_first_fold(monkeypatch)
    var = assemble_variation(registry.mean_inputs(), registry)
    res = trace_adc(case, var)
    assert injected and len(folds) == 2
    assert res.n_newton == sum(iterations)
    lam = res.lambdas["collapse"]
    assert lam == pytest.approx(fold_lambda(case, case.direction_arrays(var), lam), rel=1e-7)


def test_fold_iterate_far_from_the_last_point_is_accepted(case, registry, monkeypatch):
    # MCS draw 186 at seed 0 starts its fold after a failed natural step and
    # the fold lies further than MAX_VM_STEP in |V| from the last point; the
    # iterate is judged from the chord it corrects from, so the first fold
    # attempt is kept and the march does not fall back to halving
    from adcap import continuation
    from adcap.assessment import _STREAM_MCS
    from adcap.stochastic import sample_inputs

    u = sample_inputs(registry.distributions(), 187, [0, _STREAM_MCS])[186]
    folds = []
    fold_ = continuation._Tracer._fold

    def fold(self, h):
        point = fold_(self, h)
        folds.append(float(np.max(np.abs(point.state.vm - self.points[-1].state.vm))))
        return point

    monkeypatch.setattr(continuation._Tracer, "_fold", fold)
    var = assemble_variation(u, registry)
    res = trace_adc(case, var)
    assert len(folds) == 1 and folds[0] > continuation.MAX_VM_STEP
    lam = res.lambdas["collapse"]
    assert lam == pytest.approx(fold_lambda(case, case.direction_arrays(var), lam), rel=1e-7)


@pytest.mark.parametrize("trace", ["reactive-limit-switch", "failed-fold"])
def test_n_solves_counts_each_converged_solve_once(
    feeder_doc, scenario_doc, model, registry, monkeypatch, trace
):
    # one per converged natural step, fold iterate or crossing, however many
    # reactive-limit switching rounds it took; a failed corrector run counts
    # none, and the base case, solved once per case, none
    from adcap import continuation

    returns, local_switches = [], []
    solve_ = continuation._Tracer._solve

    def counted(self, curve, z, node=None, **kwargs):
        returns.append(solve_(self, curve, z, node, **kwargs))
        if node is not None or curve.limit is not None:  # a fold iterate or crossing
            local_switches.append(returns[-1].q_switched != curve.q_switched)
        return returns[-1]

    monkeypatch.setattr(continuation._Tracer, "_solve", counted)
    if trace == "failed-fold":
        injected = _fail_first_fold(monkeypatch)[2]
        case = NetworkCase(model)
        var = assemble_variation(registry.mean_inputs(), registry)
    else:
        case, var = _pv_675_trace(feeder_doc, scenario_doc)
    res = trace_adc(case, var)
    assert res.n_solves == len(returns)
    assert injected if trace == "failed-fold" else any(local_switches)


def test_mcs_traces_stop_halving_into_the_nose(case, registry):
    # the fold is solved at the first failed natural step, not after the
    # march has halved its step into the nose; the counts are deterministic
    from adcap.assessment import _STREAM_MCS
    from adcap.stochastic import sample_inputs

    results = [
        trace_adc(case, assemble_variation(u, registry))
        for u in sample_inputs(registry.distributions(), 50, [0, _STREAM_MCS])
    ]
    assert np.mean([r.n_newton for r in results]) <= 23.3
    assert np.mean([r.n_solves for r in results]) <= 8.45


def test_each_corrector_starts_from_what_the_trace_knows(case, registry, monkeypatch):
    # a natural step starts from the base tangent or the polynomial through
    # the last points, a crossing at the zero of its binding side's margin
    # and a fold iterate from the cubic Hermite in eta: per trace the
    # converged steps take 7.06 Newton iterations, the two crossings 4 and
    # the fold 3.0 (8.96, 6.0 and 6.04 from the secant, the margin's chord
    # and the fold chord); the failed step past the nose is not in these
    from adcap import continuation
    from adcap.assessment import _STREAM_MCS
    from adcap.stochastic import sample_inputs

    iterations = {"steps": 0, "_cross": 0, "_fold": 0}
    solve_ = continuation._Tracer._solve

    def solve(self, curve, z, node=None, **kwargs):
        state = solve_(self, curve, z, node, **kwargs)
        if kwargs.get("abort_on_rise"):  # a converged step of the march
            iterations["steps"] += state.newton_total
        return state

    def counted(name):
        method = getattr(continuation._Tracer, name)

        def wrapped(self, *args):
            before = self.n_newton
            try:
                return method(self, *args)
            finally:
                iterations[name] += self.n_newton - before

        return wrapped

    monkeypatch.setattr(continuation._Tracer, "_solve", solve)
    for name in ("_cross", "_fold"):
        monkeypatch.setattr(continuation._Tracer, name, counted(name))
    inputs = sample_inputs(registry.distributions(), 50, [0, _STREAM_MCS])
    for u in inputs:
        trace_adc(case, assemble_variation(u, registry))
    per_trace = {name: n / len(inputs) for name, n in iterations.items()}
    assert per_trace["steps"] <= 7.3
    assert per_trace["_cross"] <= 4.1
    assert per_trace["_fold"] <= 3.2


def test_base_case_converging_through_a_rising_mismatch():
    # 1.4 pu of load with 2.7 pu of reactive injection behind x = 0.3 pu:
    # from the flat start the mismatch max-norm rises in the first Newton
    # iteration (2.70 -> 2.71) and then falls to the upper-branch solution,
    # where V^4 - 2.62 V^2 + 0.8325 = 0 gives |V| = 1.5.  A march step would
    # give up there; the base case keeps the whole budget and solves it.
    case = NetworkCase(load_feeder(two_bus_doc(p_kw=1400.0, q_kvar=-2700.0)))
    with pytest.raises(ConvergenceError, match="diverging"):
        solve_at(case, abort_on_rise=True)
    state, _ = solve_base_case(case)
    assert state.vm[case.index[("r", "a")]] == pytest.approx(1.5, abs=1e-9)
    assert solve_base_case(case)[0] is state  # kept on the case


def test_curve_collection(case, registry, model):
    var = assemble_variation(registry.mean_inputs(), registry)
    res = trace_adc(case, var)
    assert len(res.curve) >= 5
    lams = [p.lam for p in res.curve]
    assert lams[0] == 0.0
    assert max(lams) >= res.lambdas["collapse"] * 0.8
    assert all(0 < p.min_vm <= 1.2 for p in res.curve)


def test_the_step_doubles_after_every_easy_correction(case, registry, monkeypatch):
    # from STEP0 = 0.25 the mean-input march doubles to STEP_MAX = 0.5 after
    # its first correction and stays there to the nose; with no correction
    # easy enough every step stays at STEP0
    from adcap import continuation

    var = assemble_variation(registry.mean_inputs(), registry)
    res = trace_adc(case, var)
    assert [p.lam for p in res.curve] == [0.0, 0.25, 0.75, 1.25, res.lambdas["collapse"]]
    monkeypatch.setattr(continuation, "EASY_ITERS", 0)
    res = trace_adc(case, var)
    assert [p.lam for p in res.curve[:-1]] == [0.25 * k for k in range(6)]
    assert res.curve[-1].lam == res.lambdas["collapse"]


def test_every_trace_curve_rises_in_lambda_and_ends_at_the_fold(case, registry):
    from adcap.stochastic import sample_inputs

    for u in sample_inputs(registry.distributions(), 20, [0, 0]):
        res = trace_adc(case, assemble_variation(u, registry))
        lams = [p.lam for p in res.curve]
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert lams[-1] == res.lambdas["collapse"]


def test_trace_memo_returns_the_stored_result_for_a_repeated_direction():
    case = NetworkCase(load_feeder(two_bus_doc(v_min=0.90)))
    var = VariationVector(dp_kw={("r", "a"): -100.0}, dq_kvar={("r", "a"): -40.0},
                          load_increase_kw=100.0)
    same = VariationVector(dict(var.dp_kw), dict(var.dq_kvar), 100.0)
    memo = {}
    first = trace_adc(case, var, memo=memo)
    assert len(memo) == 1
    assert first.curve and first.curve[-1].lam == first.lambdas["collapse"]
    assert trace_adc(case, same, memo=memo) is first
    assert len(memo) == 1
    # another direction is another entry; no memo traces every time
    trace_adc(case, VariationVector(var.dp_kw, var.dq_kvar, 200.0), memo=memo)
    assert len(memo) == 2
    assert trace_adc(case, var) is not trace_adc(case, var)


def test_trace_delta_of_a_tree_against_itself_is_zero():
    # scripts/trace_delta.py checks every trace-kernel change; pin its output
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "trace_delta.py"), src, src, "--samples", "2"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    lines = out.splitlines()
    assert lines[0] == "traces: 93 (2 MCS + 91 design)"
    # then the PV-675 feeder's traces, which switch reactive limits, in
    # lines of their own
    k = lines.index("pv-675 traces: 201 (mean input + 200 MCS)")
    assert all(line.startswith("pv-675 ") for line in lines[k:])
    split = re.compile(
        r"(old|new) newton iterations per trace: march (\S+), voltage crossing (\S+), "
        r"thermal crossing (\S+), fold (\S+)$"
    )
    for block in (lines[1:k], [line[len("pv-675 "):] for line in lines[k + 1:]]):
        rows = [line.split() for line in block if line.split()[0] in CLASSES]
        assert len(rows) == 3
        assert all(float(x) == 0.0 for row in rows for x in row[1:])
        assert "binding mismatches: 0, capped mismatches: 0" in block
        assert sum(line.startswith(("old: 0 failed,", "new: 0 failed,")) for line in block) == 2
        # each tree's Newton iterations per trace, split into the march, the
        # crossing of each class and the fold, add up to its total
        parts = [m.groups() for m in map(split.match, block) if m]
        assert [name for name, *_ in parts] == ["old", "new"] and parts[0][1:] == parts[1][1:]
        total = float(next(line for line in block if line.startswith("old: ")).split()[6])
        assert all(float(x) > 0 for x in parts[0][1:])
        assert sum(map(float, parts[0][1:])) == pytest.approx(total, abs=0.021)


def test_trace_time_of_a_tree_against_itself_prints_its_medians():
    # scripts/trace_time.py times every trace-kernel change per trace; pin
    # its output on the smallest run
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "trace_time.py"), src, src,
         "--traces", "2", "--pairs", "1"],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("pair 1: old ")
    assert lines[1].startswith("ms per trace (median of 1, 2 traces, best of 3): old ")
    assert lines[2].startswith("ratio new / old: median ")
    assert lines[2].endswith(("new faster in 0 of 1 pairs", "new faster in 1 of 1 pairs"))


def test_trace_delta_fails_a_collapse_lambda_off_by_more_than_its_tolerance(tmp_path):
    # a copy of the package whose collapse lambdas sit 1e-6 off fails the
    # 1e-7 tolerance, and the script says so in its exit status
    import shutil

    root = Path(__file__).resolve().parents[1]
    shutil.copytree(root / "src" / "adcap", tmp_path / "adcap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "adcap" / "continuation.py", "a") as f:
        f.write(
            "\n_run = _Tracer.run\n\n\n"
            "def _shifted(self):\n"
            "    res = _run(self)\n"
            "    res.lambdas['collapse'] *= 1.0 + 1e-6\n"
            "    return res\n\n\n"
            "_Tracer.run = _shifted\n"
        )
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "trace_delta.py"), str(root / "src"),
         str(tmp_path), "--samples", "2"],
        stdout=subprocess.PIPE, text=True,
    )
    assert out.returncode == 2
    assert out.stdout.splitlines()[-1] == "FAIL: collapse above 1e-07"


def test_trace_delta_counts_a_zero_direction_as_a_failed_trace(tmp_path):
    # a copy of the package whose first input row has no direction fails
    # that trace, as a run counts it, instead of ending the script
    import shutil

    root = Path(__file__).resolve().parents[1]
    shutil.copytree(root / "src" / "adcap", tmp_path / "adcap",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "adcap" / "stochastic.py", "a") as f:
        f.write(
            "\n_assemble = assemble_variation\n_rows = []\n\n\n"
            "def assemble_variation(u, registry):\n"
            "    _rows.append(u)\n"
            "    if len(_rows) == 1:\n"
            "        return VariationVector({}, {}, 0.0)\n"
            "    return _assemble(u, registry)\n"
        )
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "trace_delta.py"), str(root / "src"),
         str(tmp_path), "--samples", "2"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = out.stdout.splitlines()
    assert out.returncode == 2
    assert lines[-1] == "FAIL: traces failing only in NEW_SRC"
    assert "  ZeroDirectionError: variation direction is identically zero" in lines
    assert any(line.startswith("new: 1 failed,") for line in lines)
