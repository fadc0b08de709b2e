"""Voltage and thermal crossings of whole traces against oracles that use
only ``solve`` and ``check_limits``: bisection on the class margin from the
base case, and the margin at the reported lambda.  The collapse point
against a golden-section maximum of lambda over one pinned magnitude
(``oracles.fold_lambda``).  The inputs are 100 Monte Carlo draws at seed 0
and the 91 points of the PCE design."""

import math

import numpy as np
import pytest

from adcap import chaos
from adcap.continuation import check_limits, trace_adc
from adcap.feeder import load_feeder
from adcap.powerflow import NetworkCase, solve
from adcap.stochastic import (
    VariationVector,
    assemble_variation,
    physical_inputs,
    sample_inputs,
)

from conftest import two_bus_doc
from oracles import fold_lambda

N_MCS = 100
BISECT_TOL = 1e-10  # width of the final bisection bracket in lambda
ORACLE_TOL = 5e-6  # |trace lambda - bisection lambda|
MARGIN_TOL = 1e-7  # |class margin| of the state solved at the reported lambda
# |trace collapse lambda / oracle lambda - 1|; near the fold the Newton
# tolerance holds lambda to about 3e-8
FOLD_TOL = 1e-7


def _class_margin(status, cls):
    if cls == "voltage":
        return min(status.v_lower_margin, status.v_upper_margin)
    return status.thermal_margin


def _binding(status, cls):
    if cls == "thermal":
        return status.thermal_branch
    if status.v_lower_margin <= status.v_upper_margin:
        return ("lower", status.v_lower_node)
    return ("upper", status.v_upper_node)


@pytest.fixture(scope="module")
def traced(case, registry):
    """(direction arrays, trace result) per input, every trace computed once."""
    dists = registry.distributions()
    n_rows = chaos.basis_size(registry.dimension, chaos.ORDER)
    design = chaos.collocation_design(registry.dimension, n_rows)
    inputs = np.vstack([
        sample_inputs(dists, N_MCS, [0, 0]), physical_inputs(design.points, dists)
    ])
    out = []
    for u in inputs:
        var = assemble_variation(u, registry)
        out.append((case.direction_arrays(var), trace_adc(case, var)))
    return out


def _crossings(traced):
    for d, res in traced:
        for cls in ("voltage", "thermal"):
            if res.binding_element[cls] is not None:
                yield cls, d, res


def test_oracle_inputs_cross_both_classes(traced):
    assert len(traced) == N_MCS + 91
    seen = {cls for cls, _, _ in _crossings(traced)}
    assert seen == {"voltage", "thermal"}


def test_crossings_agree_with_bisection_oracle(case, traced):
    # the trace's crossing is the first sign change of the class margin
    # along the upper branch; bisect it from the base case, where every
    # margin is positive, to just past the reported lambda
    n = 0
    for cls, d, res in _crossings(traced):
        lam = res.lambdas[cls]
        lo, hi = 0.0, lam + 1e-4
        assert _class_margin(check_limits(case, solve(case, hi, d)), cls) < 0
        while hi - lo > BISECT_TOL:
            mid = 0.5 * (lo + hi)
            if _class_margin(check_limits(case, solve(case, mid, d)), cls) >= 0:
                lo = mid
            else:
                hi = mid
        assert lam == pytest.approx(lo, abs=ORACLE_TOL), cls
        assert lam < res.lambdas["collapse"]
        n += 1
    assert n >= 100


def test_crossing_states_sit_on_their_margin(case, traced):
    for cls, d, res in _crossings(traced):
        status = check_limits(case, solve(case, res.lambdas[cls], d))
        assert abs(_class_margin(status, cls)) <= MARGIN_TOL, cls
        assert _binding(status, cls) == res.binding_element[cls]


def test_collapse_agrees_with_fold_oracle(case, traced):
    for d, res in traced:
        assert not res.capped
        lam = res.lambdas["collapse"]
        assert lam == pytest.approx(fold_lambda(case, d, lam), rel=FOLD_TOL)


def _two_phase_case():
    """Two-bus feeder on phases a and b with decoupled lossless lines
    (x = 0.3 pu per phase).  Phase a starts loaded at 1 pu and grows slowly;
    phase b starts unloaded and grows fast, so a crosses v_min first while b
    falls further by the end of the march step that brackets both."""
    doc = two_bus_doc(x_ohm=0.3, v_min=0.90)
    for bus in doc["buses"]:
        bus["phases"] = "ab"
    br = doc["branches"][0]
    br.update(phases="ab", r_ohm=[[0.0, 0.0], [0.0, 0.0]],
              x_ohm=[[0.3, 0.0], [0.0, 0.3]], b_shunt_s=[[0.0, 0.0], [0.0, 0.0]])
    doc["loads"] = [{"bus": "r", "phase": "a", "p_kw": 1000.0, "q_kvar": 0.0}]
    return NetworkCase(load_feeder(doc))


def test_voltage_crossing_when_the_binding_node_changes_inside_the_bracket():
    case = _two_phase_case()
    pa, pb = 0.3, 1.25  # growth per unit lambda, pu
    var = VariationVector(
        dp_kw={("r", "a"): -1000.0 * pa, ("r", "b"): -1000.0 * pb},
        dq_kvar={}, load_increase_kw=1000.0 * (pa + pb),
    )
    res = trace_adc(case, var)
    # lossless, unity power factor: |V| = 0.9 where (x P)^2 = y - y^2, y = 0.81
    p_cross = math.sqrt(0.81 - 0.81 ** 2) / 0.3
    lam_a, lam_b = (p_cross - 1.0) / pa, p_cross / pb
    assert lam_a < lam_b
    assert res.lambdas["voltage"] == pytest.approx(lam_a, abs=1e-7)
    assert res.binding_element["voltage"] == ("lower", ("r", "a"))

    # the accepted point past the crossing has phase b furthest below v_min
    lams = [p.lam for p in res.curve]
    k = next(i for i, lam in enumerate(lams) if lam > res.lambdas["voltage"])
    assert lams[k] > lam_b
    end = check_limits(case, solve(case, lams[k], case.direction_arrays(var)))
    assert end.v_lower_node == ("r", "b")
    vm_a = solve(case, lams[k], case.direction_arrays(var)).vm[case.index[("r", "a")]]
    assert vm_a < 0.9 and end.v_lower_margin < vm_a - 0.9
    assert np.isfinite(res.lambdas["collapse"])
