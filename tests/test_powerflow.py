import json
import math

import numpy as np
import pytest

from adcap.errors import ConvergenceError
from adcap.feeder import load_feeder
from adcap.powerflow import (
    MAX_ITER,
    NetworkCase,
    TOL,
    Curve,
    PowerFlowState,
    branch_flows,
    correct,
    solve,
)
from adcap.stochastic import assemble_variation, build_registry

from conftest import two_bus_doc
from oracles import branch_flows_loop, dense_jacobian, jacobian, mismatch, power_balance


def _perturbed_state(case, scale, rng):
    vm = np.ones(case.n) + scale * rng.uniform(-1, 1, case.n)
    theta = case.theta_ref + scale * rng.uniform(-1, 1, case.n)
    return PowerFlowState(vm=vm, theta=theta, q_switched={},
                          iterations=0, max_mismatch=np.inf)


def test_jacobian_matches_finite_differences(case):
    """Analytic mismatch jacobian vs central differences at a random point."""
    rng = np.random.default_rng(42)
    state = _perturbed_state(case, 0.05, rng)
    idx_p, idx_q = case.partition({})
    jac = jacobian(case, state)

    h = 1e-7

    def g_of(vm, theta):
        st = PowerFlowState(vm=vm, theta=theta, q_switched={},
                            iterations=0, max_mismatch=np.inf)
        return mismatch(case, st, 0.0, None)

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


def _pv675_case(feeder_doc):
    """The bundled feeder with a three-phase pv generator at 675."""
    doc = json.loads(json.dumps(feeder_doc))
    next(b for b in doc["buses"] if b["id"] == "675").update(type="pv", v0_pu=1.0)
    doc["generators"].append({
        "id": "pv-675", "bus": "675", "phases": "abc", "type": "pv",
        "v0_pu": 1.0, "q_min_kvar": -300.0, "q_max_kvar": 300.0,
    })
    return NetworkCase(load_feeder(doc))


def test_switched_and_augmented_jacobians_match_finite_differences(feeder_doc, registry):
    """A pv bus with one phase switched to its reactive limit, so the Q rows
    and magnitude columns differ from the P rows and angle columns: the
    power-flow Jacobian, the augmented one and the augmented one with a
    magnitude pinned all match central differences of Curve.linearize."""
    case = _pv675_case(feeder_doc)
    direction = case.direction_arrays(assemble_variation(registry.mean_inputs(), registry))
    curve = Curve(case, direction, {("675", "b"): "max"})
    assert len(curve.idx_q) == len(curve.idx_p) - 2
    assert case.index[("675", "b")] in curve.idx_q
    assert case.index[("675", "a")] not in curve.idx_q

    rng = np.random.default_rng(7)
    z = curve.pack(_perturbed_state(case, 0.05, rng), 0.8)
    vm, theta = curve.unpack(z)

    def g_of(zz):
        return curve.linearize(zz.copy(), curve.lam_coord)[0]

    h = 1e-7
    cols = []
    for j in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        cols.append((g_of(zp) - g_of(zm)) / (2 * h))
    fd = np.column_stack(cols)

    pin = curve.vm_coord(case.index[("675", "b")])
    for p in (None, curve.lam_coord, pin):
        jac = curve.jacobian(vm, theta, p)
        want = fd if p is None else np.delete(fd, p, axis=1)
        assert jac.shape == want.shape
        assert np.max(np.abs(jac - want)) / np.abs(jac).max() < 1e-6
        # the Newton loop's Jacobian reads the residual's complex power
        _, jac_thunk = curve.linearize(z.copy(), p)
        if p is not None:
            assert np.array_equal(jac_thunk(), jac)
    state = PowerFlowState(vm, theta, dict(curve.q_switched))
    assert np.array_equal(jacobian(case, state), curve.jacobian(vm, theta, curve.lam_coord))


def test_correct_gives_up_when_the_mismatch_rises():
    # Newton on atan(x) = 0 from x = 1.5 overshoots to |x| > 1.5, where
    # |atan| is larger: with abort_on_rise the loop stops there instead of
    # iterating on
    def linearize(z, pin):
        return np.array([math.atan(z[0])]), lambda: np.array([[1.0 / (1.0 + z[0] ** 2)]])

    with pytest.raises(ConvergenceError, match="diverging") as exc:
        correct(linearize, np.array([1.5, 0.0]), pin=1, abort_on_rise=True)
    assert 1 <= exc.value.iterations <= 2
    assert exc.value.max_mismatch > math.atan(1.5)
    # from x = 1 Newton converges, so the same loop solves it
    z, iters, norm = correct(linearize, np.array([1.0, 0.0]), pin=1, abort_on_rise=True)
    assert abs(z[0]) < 1e-8 and norm < TOL and iters < MAX_ITER


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
    # a caller that retries shorter gives up once the mismatch rises, not
    # after the whole budget
    with pytest.raises(ConvergenceError, match="diverging") as exc:
        solve(case, abort_on_rise=True)
    assert exc.value.iterations < MAX_ITER


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


def _end_rows(case, branch_id, end):
    return [k for k, (b, _, e) in enumerate(case.branch_rows) if (b, e) == (branch_id, end)]


def test_branch_flow_transformer_rated_from_side_only(case):
    state = solve(case)
    flows = branch_flows(case, state)
    i_from = flows.amps[_end_rows(case, "xf-633-634", "from")]
    i_to = flows.amps[_end_rows(case, "xf-633-634", "to")]
    # through impedance is referred to the from side, so per-unit current is
    # continuous but physical amps differ by the base ratio
    assert i_to.max() > 5 * i_from.max()
    loading = flows.loading[case.branch_ids.index("xf-633-634")]
    assert loading == pytest.approx(i_from.max() / 80.0, rel=1e-9)


def test_branch_flows_match_the_per_branch_loop(case, registry):
    """The stacked branch-current product against one branch at a time from
    its two-port blocks, at lambda = 0 and two lambda > 0.  The bundled
    feeder has branches of 1, 2 and 3 phases and a transformer rated on its
    from side only.

    The product sums each current in another order than the loop, so the
    two may differ by a few ulps of the terms it is summed from; the bound
    is 1e-12 relative to the sum of those terms' magnitudes.  Some currents
    are nearly all cancellation (ln-671-680 carries 3.6e-3 A at lambda = 0,
    summed from terms of 3e4 A), so a bound relative to the current itself
    would hold in no summation order."""
    assert {len(br.phases) for br in case.model.branches} == {1, 2, 3}
    assert any(br.kind == "transformer" for br in case.model.branches)
    direction = case.direction_arrays(assemble_variation(registry.mean_inputs(), registry))
    state = solve(case)
    for lam in (0.0, 0.4, 0.8):
        state = solve(case, lam, direction, initial=state)
        flows = branch_flows(case, state)
        ref = branch_flows_loop(case, state)
        assert case.branch_ids == [bid for bid, *_ in ref]
        terms = (np.abs(case.branch_current) @ np.abs(state.voltage())) * case.branch_i_base
        for k, (bid, i_from, i_to, loading, _, _) in enumerate(ref):
            rows = [r for r, (b, _, _) in enumerate(case.branch_rows) if b == bid]
            bound = 1e-12 * terms[rows].max() / case.ampacity[k]
            assert abs(flows.loading[k] - loading) <= bound, (bid, lam)
            for end, amps in (("from", i_from), ("to", i_to)):
                rows = _end_rows(case, bid, end)
                assert len(rows) == len(amps)
                assert np.all(np.abs(flows.amps[rows] - amps) <= 1e-12 * terms[rows]), (bid, end, lam)


def _dense_reference(curve, vm, theta, pin):
    """oracles.dense_jacobian over the columns left once ``pin`` is removed."""
    cols_p, cols_q = curve.idx_p, curve.idx_q
    if pin is not None and pin < curve.n_p:
        cols_p = np.delete(cols_p, pin)
    elif pin is not None and pin < curve.lam_coord:
        cols_q = np.delete(cols_q, pin - curve.n_p)
    return dense_jacobian(curve.case, vm, theta, (curve.idx_p, curve.idx_q), (cols_p, cols_q))


def test_jacobian_equals_the_dense_identities(case, feeder_doc, registry):
    """The Jacobian built from Y's nonzeros equals the docstring's identities
    evaluated over the dense Y, value for value: with lambda pinned, with a
    magnitude pinned, and on switched pv sets (675 phase b of the bundled
    feeder with a pv generator there, and the pv bus of the two-bus pv
    feeder), at perturbed points."""
    rng = np.random.default_rng(3)
    variants = [
        (case, {}, None),
        (_pv675_case(feeder_doc), {("675", "b"): "max"}, ("675", "b")),
        (NetworkCase(load_feeder(_pv_doc(q_max_kvar=50.0))), {("g", "a"): "max"}, ("g", "a")),
    ]
    for cs, switched, pin_node in variants:
        if cs is case:
            direction = case.direction_arrays(
                assemble_variation(registry.mean_inputs(), registry)
            )
        else:
            direction = (rng.uniform(-1, 1, cs.n), rng.uniform(-1, 1, cs.n))
        curve = Curve(cs, direction, switched)
        vm, theta = curve.unpack(curve.pack(_perturbed_state(cs, 0.05, rng), 0.5))
        free = curve.idx_q[0] if pin_node is None else cs.index[pin_node]
        for pin in (curve.lam_coord, curve.vm_coord(free), None):
            jac = curve.jacobian(vm, theta, pin)
            want = _dense_reference(curve, vm, theta, pin)
            assert np.array_equal(jac[:, : want.shape[1]], want)
            if pin != curve.lam_coord:
                assert jac.shape[1] == want.shape[1] + 1
                assert np.array_equal(
                    jac[:, -1], np.concatenate([direction[0][curve.idx_p], direction[1][curve.idx_q]])
                )


def test_loading_row_equation_and_its_jacobian(case, registry):
    """A curve with a loading row appends (amps / ampacity)^2 - 1 of that
    row to the mismatch, and its Jacobian row below the augmented Jacobian
    agrees with central differences over z (lambda column zero)."""
    direction = case.direction_arrays(assemble_variation(registry.mean_inputs(), registry))
    rng = np.random.default_rng(11)
    starts = list(case.rated_starts) + [case.n_rated_rows]
    rows = [0, starts[1] - 1, case.n_rated_rows - 1]  # from end, to end, last rated row
    for row in rows:
        curve = Curve(case, direction, {}, loading_row=row)
        z = curve.pack(_perturbed_state(case, 0.05, rng), 0.5)
        g, jac = curve.linearize(z.copy(), None)
        k = np.searchsorted(case.rated_starts, row, "right") - 1
        amps = branch_flows(case, curve.state(z)).amps[row]
        assert g[-1] == pytest.approx((amps / case.ampacity[k]) ** 2 - 1.0, rel=1e-12, abs=1e-14)
        j = jac()
        assert j.shape == (len(z), len(z))
        vm, theta = curve.unpack(z)
        assert np.array_equal(j[:-1], curve.jacobian(vm, theta, None))
        h = 1e-7
        fd = np.empty(len(z))
        for c in range(len(z)):
            zp, zm = z.copy(), z.copy()
            zp[c] += h
            zm[c] -= h
            fd[c] = (curve.linearize(zp, None)[0][-1] - curve.linearize(zm, None)[0][-1]) / (2 * h)
        assert j[-1, -1] == 0.0
        assert np.max(np.abs(j[-1] - fd)) <= 1e-6 * np.abs(fd).max()


def test_correct_with_nothing_pinned_solves_a_square_system():
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, (4, 4)) + 3.0 * np.eye(4)
    b = rng.uniform(-1, 1, 4)
    z, iters, _ = correct(lambda z, pin: (a @ z - b, lambda: a), np.zeros(4), None)
    assert iters == 1
    assert np.allclose(a @ z, b, atol=1e-12)


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
