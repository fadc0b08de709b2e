import json
import math

import numpy as np
import pytest

from adcap import powerflow
from adcap.errors import ConvergenceError
from adcap.feeder import load_feeder
from adcap.powerflow import (
    MAX_ITER,
    NetworkCase,
    TOL,
    Curve,
    PowerFlowState,
    Reduction,
    _complex_power,
    branch_flows,
    correct,
    solve,
)
from adcap.stochastic import assemble_variation, build_registry

from conftest import delta_wye_doc, two_bus_doc
from oracles import (
    branch_flows_loop,
    dense_jacobian,
    jacobian,
    mismatch,
    mismatch_at,
    partition,
    power_balance,
    solve_at,
    spec_injections,
)


def _perturbed_state(case, scale, rng):
    vm = np.ones(case.n) + scale * rng.uniform(-1, 1, case.n)
    theta = case.theta_ref + scale * rng.uniform(-1, 1, case.n)
    return PowerFlowState(vm=vm, theta=theta, q_switched={},
                          iterations=0, max_mismatch=np.inf)


def test_jacobian_matches_finite_differences(case):
    """Analytic mismatch jacobian vs central differences at a random point."""
    rng = np.random.default_rng(42)
    state = _perturbed_state(case, 0.05, rng)
    idx_p, idx_q = partition(case, {})
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


def test_reduction_rows_over_every_node_are_the_whole_networks(feeder_doc):
    """A reduction that keeps every node has the node-by-node oracle's rows,
    as node indices and as positions, with no PV phase switched and with
    one; they are read-only and computed once per set of switched nodes."""
    case = _pv675_case(feeder_doc)
    full = Reduction(case, np.ones(case.n, dtype=bool))
    for q_switched, n_pv in (({}, 3), ({("675", "b"): "max"}, 2)):
        rows = full.partition(q_switched)
        want_p, want_q = partition(case, q_switched)
        assert len(want_q) == len(want_p) - n_pv
        for got, want in zip(rows, (want_p, want_q, want_p, want_q)):
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        assert full.partition(dict(q_switched)) is rows


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
    # the Kron-reduced Jacobian is the Schur complement of the whole
    # network's, taken at the recovered state, where the eliminated nodes'
    # power balance holds by construction
    state = PowerFlowState(vm, theta, dict(curve.q_switched))
    full_p, full_q = partition(case, curve.q_switched)
    held = np.concatenate([curve.net.local[full_p], curve.net.local[full_q]]) >= 0
    k, e = np.flatnonzero(held), np.flatnonzero(~held)
    assert len(e) == 2 * len(curve.net.elim) > 0
    full = jacobian(case, state)
    schur = full[np.ix_(k, k)] - full[np.ix_(k, e)] @ np.linalg.solve(
        full[np.ix_(e, e)], full[np.ix_(e, k)]
    )
    jac = curve.jacobian(vm, theta, curve.lam_coord)
    assert np.max(np.abs(schur - jac)) <= 1e-10 * np.abs(jac).max()


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
    state = solve_at(case)
    s_nodal, s_elem = power_balance(case, state)
    assert abs(s_nodal - s_elem) < 10 * TOL


def test_power_balance_under_direction(case, registry):
    var = assemble_variation(registry.mean_inputs(), registry)
    state = solve_at(case, 0.4, case.direction_arrays(var))
    s_nodal, s_elem = power_balance(case, state)
    assert abs(s_nodal - s_elem) < 10 * TOL


def test_delta_wye_bank_solves_and_balances():
    # no bundled feeder has a delta-wye bank: its blocks land in Y
    # symmetrically, the flat start converges, and nodal injections match the
    # per-element flows
    case = NetworkCase(load_feeder(delta_wye_doc()))
    assert np.array_equal(case.y, case.y.T)
    state = solve_at(case)
    assert state.iterations <= 5 and state.max_mismatch < TOL
    s_nodal, s_elem = power_balance(case, state)
    assert abs(s_nodal - s_elem) < 10 * TOL


def test_no_load_flat_profile():
    doc = two_bus_doc(p_kw=0.0)
    case = NetworkCase(load_feeder(doc))
    state = solve_at(case)
    assert np.allclose(state.vm, 1.0, atol=1e-10)
    assert np.allclose(state.theta, state.theta[0], atol=1e-10)


def _two_bus_closed_form_vm(doc, p, q, x):
    # E^2 y = y^2 + 2 lam Q x y + x^2(P^2+Q^2) with y = V^2 solves the
    # receiving-end voltage of a lossless two-bus link exactly
    case = NetworkCase(load_feeder(doc))
    state = solve_at(case)
    pp, qq = p / 1000.0, q / 1000.0
    coeffs = [1.0, 2 * qq * x - 1.0, x * x * (pp * pp + qq * qq)]
    y = max(np.roots(coeffs))  # upper branch
    assert state.vm[case.index[("r", "a")]] == pytest.approx(np.sqrt(y), rel=1e-9)
    return case


def test_two_bus_closed_form_voltage():
    p, q, x = 400.0, 150.0, 0.3
    _two_bus_closed_form_vm(two_bus_doc(p_kw=p, q_kvar=q, x_ohm=x), p, q, x)


@pytest.mark.parametrize("x_mid, n_elim", [
    (0.01, 2),  # two unloaded buses, which every solve eliminates
    (1e-9, 0),  # ... joined so tightly that their block of Y is ill-conditioned
])
def test_two_bus_closed_form_voltage_through_unloaded_buses(x_mid, n_elim):
    # the link of test_two_bus_closed_form_voltage split in three, with the
    # same total reactance
    p, q, x = 400.0, 150.0, 0.3
    doc = two_bus_doc(p_kw=p, q_kvar=q, x_ohm=x)
    [link] = doc["branches"]
    doc["buses"] += [dict(doc["buses"][1], id=bus) for bus in ("m1", "m2")]
    doc["branches"] = [
        dict(link, id=f"ln{k}", x_ohm=[[xk]], **{"from": a, "to": b})
        for k, (a, b, xk) in enumerate(
            [("s", "m1", x / 2), ("m1", "m2", x_mid), ("m2", "r", x / 2 - x_mid)]
        )
    ]
    case = _two_bus_closed_form_vm(doc, p, q, x)
    assert len(case.reduction(None).elim) == n_elim


def test_newton_iteration_count_reasonable(case):
    state = solve_at(case)
    assert state.iterations <= 6
    assert state.max_mismatch < TOL


def test_unsolvable_raises():
    doc = two_bus_doc(p_kw=3000.0, x_ohm=0.3)  # beyond the nose
    case = NetworkCase(load_feeder(doc))
    with pytest.raises(ConvergenceError):
        solve_at(case)
    # a caller that retries shorter gives up once the mismatch rises, not
    # after the whole budget
    with pytest.raises(ConvergenceError, match="diverging") as exc:
        solve_at(case, abort_on_rise=True)
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
    state = solve_at(case)
    i = case.index[("g", "a")]
    assert state.vm[i] == pytest.approx(1.02, abs=1e-9)
    assert not state.q_switched


def test_pv_bus_switches_to_pq_at_limit():
    case = NetworkCase(load_feeder(_pv_doc(q_max_kvar=50.0)))
    state = solve_at(case)
    i = case.index[("g", "a")]
    assert state.q_switched == {("g", "a"): "max"}
    assert state.vm[i] < 1.02  # magnitude released after pinning q at the cap
    # the delivered reactive power sits exactly at the limit
    _, _, s = _complex_power(case.y, state.vm, state.theta)
    assert s.imag[i] - case.q0[i] == pytest.approx(50.0 / 1000.0, abs=1e-8)


def test_pv_switching_idempotent():
    case = NetworkCase(load_feeder(_pv_doc(q_max_kvar=50.0)))
    state = solve_at(case)
    again = solve_at(case, initial=state)
    assert again.q_switched == state.q_switched
    assert again.iterations <= 2  # warm start: nothing to redo
    assert np.allclose(again.vm, state.vm, atol=1e-9)


def _end_rows(case, branch_id, end):
    return [k for k, (b, _, e) in enumerate(case.branch_rows) if (b, e) == (branch_id, end)]


def test_branch_flow_transformer_rated_from_side_only(case):
    state = solve_at(case)
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
    state = solve_at(case)
    for lam in (0.0, 0.4, 0.8):
        state = solve_at(case, lam, direction, initial=state)
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
    """oracles.dense_jacobian over the curve's reduced Y at its kept nodes,
    over the columns left once ``pin`` is removed."""
    net = curve.net
    rows_p, rows_q = net.local[curve.idx_p], net.local[curve.idx_q]
    cols_p, cols_q = rows_p, rows_q
    if pin is not None and pin < curve.n_p:
        cols_p = np.delete(cols_p, pin)
    elif pin is not None and pin < curve.lam_coord:
        cols_q = np.delete(cols_q, pin - curve.n_p)
    return dense_jacobian(
        net.y, vm[net.kept], theta[net.kept], (rows_p, rows_q), (cols_p, cols_q)
    )


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


def test_bordered_tangent_matrix_is_the_jacobian_over_a_unit_row(case, registry):
    """The tangent's bordered matrix is the augmented Jacobian with the unit
    row of the coordinate that moves below it, bit for bit: for lambda and
    for one magnitude."""
    direction = case.direction_arrays(assemble_variation(registry.mean_inputs(), registry))
    curve = Curve(case, direction, {})
    vm, theta = curve.unpack(curve.pack(_perturbed_state(case, 0.05, np.random.default_rng(5)), 0.5))
    for unit in (curve.lam_coord, curve.vm_coord(int(curve.idx_q[3]))):
        e_unit = np.zeros(curve.lam_coord + 1)
        e_unit[unit] = 1.0
        want = np.vstack([curve.jacobian(vm, theta), e_unit])
        assert np.array_equal(curve.jacobian(vm, theta, unit=unit), want)


def test_newton_residual_is_the_reference_mismatch_bit_for_bit(feeder_doc, registry):
    """The Newton loop's residual equals oracles.mismatch_at over the
    specified injections of oracles.spec_injections, bit for bit, on a pv
    case with one phase switched to each reactive limit.  At a solved
    point the residual is small enough to keep the last bits of the
    specified injections, so adding the limits before lambda times the
    direction would show (at lambda 0.8, not at 0.5)."""
    case = _pv675_case(feeder_doc)
    direction = case.direction_arrays(assemble_variation(registry.mean_inputs(), registry))
    switched = {("675", "b"): "max", ("675", "c"): "min"}
    curve = Curve(case, direction, switched)
    z = curve.pack(solve_at(case, 0.5, direction), 0.8)
    vm, theta = curve.unpack(z)
    net = curve.net
    _, _, s = _complex_power(net.y, vm[net.kept], theta[net.kept])
    p_spec, q_spec = spec_injections(case, 0.8, direction, switched)
    want = mismatch_at(
        s, net.local[curve.idx_p], net.local[curve.idx_q], p_spec[net.kept], q_spec[net.kept]
    )
    assert np.array_equal(curve.linearize(z.copy(), curve.lam_coord)[0], want)


@pytest.mark.parametrize("pin", ["lambda", "kept magnitude", "limit row"])
def test_solve_holds_its_pin_through_every_switching_round(feeder_doc, registry, monkeypatch, pin):
    """``solve`` pins lambda, the magnitude at a given kept node, or nothing
    on a curve with a limit row (here at an eliminated node).  On the pv
    case each solve starts at the unswitched base case and ends at the
    point solved at lambda 0.7, its magnitude or lambda held there, so its
    rounds switch three reactive limits.  The pinned coordinate keeps its
    start value bit for bit, or the limit row meets the tolerance; the
    returned z is the state packed on its switch set's curve; and
    ``newton_total`` sums the rounds' iterations."""
    case = _pv675_case(feeder_doc)
    d = case.direction_arrays(assemble_variation(registry.mean_inputs(), registry))
    end = solve_at(case, 0.7, d)
    node = case.index[("633", "a") if pin == "limit row" else ("680", "a")]
    limit = None
    if pin == "limit row":
        assert node in case.reduction(d).elim
        unit = np.zeros(case.n, dtype=complex)
        unit[node] = 1.0
        limit = unit, end.vm[node]
    curve = Curve(case, d, {}, limit)
    z0 = curve.pack(solve_at(case), 0.7 if pin == "lambda" else 0.0)
    if pin == "lambda":
        node = None
    elif pin == "kept magnitude":
        z0[curve.vm_coord(node)] = end.vm[node]
    rounds = []
    correct_ = powerflow.correct

    def counted(*args, **kwargs):
        z, iters, norm = correct_(*args, **kwargs)
        rounds.append(iters)
        return z, iters, norm

    monkeypatch.setattr(powerflow, "correct", counted)
    state = solve(curve, z0, node)
    monkeypatch.undo()
    assert state.q_switched == end.q_switched and len(rounds) == 1 + len(end.q_switched)
    last = Curve(case, d, state.q_switched, limit)
    if pin == "lambda":
        assert state.z[-1] == z0[-1]
    elif pin == "kept magnitude":
        assert state.z[last.vm_coord(node)] == z0[curve.vm_coord(node)] == state.vm[node]
    else:
        assert np.abs(last.linearize(state.z.copy(), None)[0]).max() < TOL
        assert state.vm[node] == pytest.approx(end.vm[node], abs=1e-12)
    assert np.array_equal(state.z, Curve(case, d, state.q_switched).pack(state, state.z[-1]))
    assert state.newton_total == sum(rounds) > 0
    assert state.z[-1] == pytest.approx(0.7, abs=1e-6)


def test_loading_row_equation_and_its_jacobian(case, registry):
    """A curve with the limit row of a rated branch-current row at its
    ampacity appends (amps / ampacity)^2 - 1 of that row to the mismatch,
    and its Jacobian row below the augmented Jacobian agrees with central
    differences over z (lambda column zero)."""
    direction = case.direction_arrays(assemble_variation(registry.mean_inputs(), registry))
    rng = np.random.default_rng(11)
    starts = list(case.rated_starts) + [case.n_rated_rows]
    rows = [0, starts[1] - 1, case.n_rated_rows - 1]  # from end, to end, last rated row
    for row in rows:
        k = np.searchsorted(case.rated_starts, row, "right") - 1
        w = case.branch_current[row] * (case.branch_i_base[row] / case.ampacity[k])
        curve = Curve(case, direction, {}, limit=(w, 1.0))
        z = curve.pack(_perturbed_state(case, 0.05, rng), 0.5)
        g, jac = curve.linearize(z.copy(), None)
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


def test_reduced_solve_balances_every_node_of_the_whole_network(case, registry):
    """Along the bundled direction the Newton system is Y Kron-reduced by
    the ten nodes without load, generator or direction entry; the full
    state recovered from a solve balances the whole network's power at
    every node, the eliminated ones included."""
    d = case.direction_arrays(assemble_variation(registry.mean_inputs(), registry))
    net = case.reduction(d)
    assert sorted(case.nodes[i] for i in net.elim) == [
        ("633", "a"), ("633", "b"), ("633", "c"), ("645", "c"), ("646", "c"),
        ("684", "a"), ("684", "c"), ("rg60", "a"), ("rg60", "b"), ("rg60", "c"),
    ]
    state = solve_at(case, 0.5, d)
    g = mismatch(case, state, 0.5, d)
    assert len(g) == 2 * len(case.monitored)
    assert np.max(np.abs(g)) < 1e-8


def test_limit_row_holds_an_eliminated_magnitude_at_its_target(case, registry):
    """The limit row |V|^2 = c^2 of an eliminated node's recovered voltage
    (684.c along the bundled direction) is solved with lambda free."""
    d = case.direction_arrays(assemble_variation(registry.mean_inputs(), registry))
    i = case.index[("684", "c")]
    assert i in case.reduction(d).elim
    state = solve_at(case, 0.5, d)
    target = state.vm[i] - 0.01
    unit = np.zeros(case.n, dtype=complex)
    unit[i] = 1.0
    curve = Curve(case, d, {}, limit=(unit, target))
    z, _, _ = correct(curve.linearize, curve.pack(state, 0.5), None, tol=1e-11)
    assert abs(curve.state(z).vm[i] - target) <= 1e-10
    assert z[-1] > 0.5


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
    s0 = solve_at(case)
    s1 = solve_at(case, 0.3, d, initial=s0)
    assert s1.vm.min() < s0.vm.min()  # more load, deeper sag
