import numpy as np
import pytest

from adcap.errors import ConvergenceError
from adcap.feeder import load_feeder
from adcap.powerflow import (
    NetworkCase,
    TOL,
    PowerFlowState,
    branch_flows,
    jacobian,
    mismatch,
    power_balance,
    solve,
)
from adcap.stochastic import assemble_variation, build_registry

from conftest import two_bus_doc


def _perturbed_state(case, scale, rng):
    vm = np.ones(case.n) + scale * rng.uniform(-1, 1, case.n)
    theta = case.theta_ref + scale * rng.uniform(-1, 1, case.n)
    return PowerFlowState(vm=vm, theta=theta, q_switched={}, q_gen_pu={},
                          iterations=0, max_mismatch=np.inf)


def test_jacobian_matches_finite_differences(case):
    """Analytic mismatch jacobian vs central differences at a random point."""
    rng = np.random.default_rng(42)
    state = _perturbed_state(case, 0.05, rng)
    idx_p, idx_q = case.partition({})
    jac = jacobian(case, state)

    h = 1e-7

    def g_of(vm, theta):
        st = PowerFlowState(vm=vm, theta=theta, q_switched={}, q_gen_pu={},
                            iterations=0, max_mismatch=np.inf)
        m = mismatch(case, st, 0.0, None)
        return np.concatenate([m.dp, m.dq])

    cols = []
    for j in idx_p:
        tp, tm = state.theta.copy(), state.theta.copy()
        tp[j] += h
        tm[j] -= h
        cols.append((g_of(state.vm, tp) - g_of(state.vm, tm)) / (2 * h))
    for j in idx_q:
        vp, vm_ = state.vm.copy(), state.vm.copy()
        vp[j] += h
        vm_[j] -= h
        cols.append((g_of(vp, state.theta) - g_of(vm_, state.theta)) / (2 * h))
    fd = np.column_stack(cols)
    scale = np.abs(jac).max()
    assert np.max(np.abs(jac - fd)) / scale < 1e-6


def test_power_balance_on_converged_state(case):
    state = solve(case)
    s_nodal, s_elem = power_balance(case, state)
    assert abs(s_nodal - s_elem) < 10 * TOL


def test_power_balance_under_direction(case, registry):
    var = assemble_variation(registry.mean_inputs(), registry)
    state = solve(case, 0.4, case.direction_arrays(var))
    s_nodal, s_elem = power_balance(case, state)
    assert abs(s_nodal - s_elem) < 10 * TOL


def test_no_load_flat_profile():
    doc = two_bus_doc(p_kw=0.0)
    case = NetworkCase(load_feeder(doc))
    state = solve(case)
    assert np.allclose(state.vm, 1.0, atol=1e-10)
    assert np.allclose(state.theta, state.theta[0], atol=1e-10)


def test_two_bus_closed_form_voltage():
    # E^2 y = y^2 + 2 lam Q x y + x^2(P^2+Q^2) with y = V^2 solves the
    # receiving-end voltage of a lossless two-bus link exactly
    p, q, x = 400.0, 150.0, 0.3
    doc = two_bus_doc(p_kw=p, q_kvar=q, x_ohm=x)
    case = NetworkCase(load_feeder(doc))
    state = solve(case)
    pp, qq = p / 1000.0, q / 1000.0
    coeffs = [1.0, 2 * qq * x - 1.0, x * x * (pp * pp + qq * qq)]
    y = max(np.roots(coeffs))  # upper branch
    assert state.vm[case.index[("r", "a")]] == pytest.approx(np.sqrt(y), rel=1e-9)


def test_newton_iteration_count_reasonable(case):
    state = solve(case)
    assert state.iterations <= 6
    assert state.max_mismatch < TOL


def test_unsolvable_raises():
    doc = two_bus_doc(p_kw=3000.0, x_ohm=0.3)  # beyond the nose
    case = NetworkCase(load_feeder(doc))
    with pytest.raises(ConvergenceError):
        solve(case)


def _pv_doc(q_max_kvar):
    doc = two_bus_doc(p_kw=800.0, q_kvar=500.0, x_ohm=0.25)
    doc["buses"].append({"id": "g", "type": "pv", "phases": "a",
                         "base_kv_ll": 1.7320508075688772, "v0_pu": 1.02})
    doc["branches"].append({
        "id": "ln2", "from": "r", "to": "g", "phases": "a", "kind": "line",
        "r_ohm": [[0.0]], "x_ohm": [[0.2]], "b_shunt_s": [[0.0]],
        "ampacity_a": 1e9,
    })
    doc["generators"].append({
        "id": "gen", "bus": "g", "phases": "a", "type": "pv",
        "p_kw": 200.0, "v0_pu": 1.02, "q_min_kvar": -1e6, "q_max_kvar": q_max_kvar,
    })
    return doc


def test_pv_bus_holds_setpoint_within_limits():
    case = NetworkCase(load_feeder(_pv_doc(q_max_kvar=1e6)))
    state = solve(case)
    i = case.index[("g", "a")]
    assert state.vm[i] == pytest.approx(1.02, abs=1e-9)
    assert not state.q_switched


def test_pv_bus_switches_to_pq_at_limit():
    case = NetworkCase(load_feeder(_pv_doc(q_max_kvar=50.0)))
    state = solve(case)
    i = case.index[("g", "a")]
    assert state.q_switched == {("g", "a"): "max"}
    assert state.vm[i] < 1.02  # magnitude released after pinning q at the cap
    # the delivered reactive power sits exactly at the limit
    from adcap.powerflow import _complex_power

    _, _, s = _complex_power(case, state.vm, state.theta)
    assert s.imag[i] - case.q0[i] == pytest.approx(50.0 / 1000.0, abs=1e-8)


def test_pv_switching_idempotent():
    case = NetworkCase(load_feeder(_pv_doc(q_max_kvar=50.0)))
    state = solve(case)
    again = solve(case, initial=state)
    assert again.q_switched == state.q_switched
    assert again.iterations <= 2  # warm start: nothing to redo
    assert np.allclose(again.vm, state.vm, atol=1e-9)


def test_branch_flow_transformer_rated_from_side_only(case):
    state = solve(case)
    flows = {f.branch_id: f for f in branch_flows(case, state)}
    xf = flows["xf-633-634"]
    # through impedance is referred to the from side, so per-unit current is
    # continuous but physical amps differ by the base ratio
    assert xf.i_to_a.max() > 5 * xf.i_from_a.max()
    assert xf.loading == pytest.approx(xf.i_from_a.max() / 80.0, rel=1e-9)


def test_direction_arrays_sign_convention(case, registry):
    var = assemble_variation(registry.mean_inputs(), registry)
    dp, dq = case.direction_arrays(var)
    # wind bus gains injection, pure-load bus loses it
    assert dp[case.index[("680", "a")]] > 0
    assert dp[case.index[("611", "c")]] < 0
    # per-unit scaling: 85 kW -> 0.085 pu on the load phase (plus nothing else)
    assert dp[case.index[("611", "c")]] == pytest.approx(-0.085, rel=1e-9)


def test_solve_at_lambda_moves_load(case, registry):
    var = assemble_variation(registry.mean_inputs(), registry)
    d = case.direction_arrays(var)
    s0 = solve(case)
    s1 = solve(case, 0.3, d, initial=s0)
    assert s1.vm.min() < s0.vm.min()  # more load, deeper sag
