"""Seven headline checks, one per criterion, on the bundled 13-node feeder.

The first three share a single full-scale run (10000 Monte Carlo traces plus
both expansion pipelines at 10000 surrogate samples) collected once per
session; the remainder are self-contained numerical checks.
"""

import math
from itertools import combinations_with_replacement

import numpy as np
import pytest

from adcap import chaos
from adcap.assessment import AssessmentConfig
from adcap.continuation import trace_adc
from adcap.feeder import load_feeder
from adcap.powerflow import (
    NetworkCase,
    TOL,
    PowerFlowState,
)
from adcap.report import run_assessment
from adcap.stochastic import (
    SolarUnit,
    WindTurbine,
    assemble_variation,
    build_registry,
    solar_power_kw,
    wind_power_kw,
)

from conftest import two_bus_doc
from oracles import jacobian, mismatch, partition, power_balance, solve_at

# paper-reported margins for the modified feeder (MW); the reconstruction is
# documented as approximate, so criterion 2 uses +/-15% windows around these
REFERENCE_MW = {"voltage": 0.875, "thermal": 1.253, "collapse": 2.442}


@pytest.fixture(scope="module")
def full_scale(model, scenario_doc):
    # two workers (at most the CPU count): the report does not depend on the
    # worker count (test_report_identical_at_one_and_two_workers)
    cfg = AssessmentConfig(
        method="all",
        mcs_samples=10000,
        surrogate_samples=10000,
        sparse_terms=31,
        seed=0,
        workers=2,
    )
    return run_assessment(model, scenario_doc, cfg)


def test_criterion_1_evaluation_counts_and_runtime(full_scale):
    pce = full_scale.results["pce"]
    spce = full_scale.results["spce"]
    assert pce.eval_count == 91, "full expansion must solve exactly 91 traces"
    assert spce.eval_count == 31, "sparse expansion must solve exactly 31 traces"
    assert pce.diagnostics["design_rows"] == 91
    assert spce.diagnostics["design_rows"] == 31
    assert full_scale.dimension == 12
    budget = pce.wall_clock_s + spce.wall_clock_s
    assert budget < 300.0, f"expansion pipelines took {budget:.1f}s"


def test_criterion_2_deterministic_margins(full_scale):
    det = full_scale.deterministic
    adc = det["adc_mw"]
    assert adc["voltage"] < adc["thermal"] < adc["collapse"]
    assert det["binding_class"] == "voltage"
    assert det["binding"]["voltage"] == "611.c:lower"
    for cls, ref in REFERENCE_MW.items():
        assert abs(adc[cls] - ref) / ref < 0.15, (
            f"{cls} margin {adc[cls]:.4f} MW outside +/-15% of {ref} MW"
        )


def test_criterion_3_sparse_expansion_matches_monte_carlo(full_scale):
    rows = full_scale.comparison["pairs"]["spce"]["classes"]
    for cls in ("voltage", "thermal", "collapse"):
        r = rows[cls]
        assert r["mean_rel_delta"] < 0.001, (cls, r["mean_rel_delta"])
        assert r["var_rel_delta"] < 0.10, (cls, r["var_rel_delta"])
        assert r["skew_delta"] < 0.2, (cls, r["skew_delta"])
        assert r["kurt_delta"] < 0.15, (cls, r["kurt_delta"])
        assert r["ks_distance"] < 0.03, (cls, r["ks_distance"])


def test_criterion_4_solver_correctness(case):
    # analytic jacobian vs central differences at a perturbed operating point
    rng = np.random.default_rng(0)
    vm = np.ones(case.n) + 0.05 * rng.uniform(-1, 1, case.n)
    theta = case.theta_ref + 0.05 * rng.uniform(-1, 1, case.n)
    state = PowerFlowState(vm=vm, theta=theta, q_switched={},
                           iterations=0, max_mismatch=np.inf)
    idx_p, idx_q = partition(case, {})
    jac = jacobian(case, state)
    h = 1e-7

    def g_of(vm_, th_):
        st = PowerFlowState(vm=vm_, theta=th_, q_switched={},
                            iterations=0, max_mismatch=np.inf)
        return mismatch(case, st, 0.0, None)

    cols = []
    for j in idx_p:
        tp, tm = theta.copy(), theta.copy()
        tp[j] += h
        tm[j] -= h
        cols.append((g_of(vm, tp) - g_of(vm, tm)) / (2 * h))
    for j in idx_q:
        vp, vn = vm.copy(), vm.copy()
        vp[j] += h
        vn[j] -= h
        cols.append((g_of(vp, theta) - g_of(vn, theta)) / (2 * h))
    fd = np.column_stack(cols)
    assert np.max(np.abs(jac - fd)) / np.abs(jac).max() < 1e-6

    # power balance on converged states
    st0 = solve_at(case)
    s_nodal, s_elem = power_balance(case, st0)
    assert abs(s_nodal - s_elem) < 10 * TOL

    # closed-form fold of a lossless two-bus link within 0.1%
    p, q, x = 1.0, 0.2, 0.3
    doc = two_bus_doc(x_ohm=x)
    doc["generators"].append({
        "id": "growth", "bus": "r", "phases": "a", "type": "pq",
        "delta_p_kw": -1000.0 * p, "delta_q_kvar": -1000.0 * q,
    })
    two_model = load_feeder(doc)
    two_case = NetworkCase(two_model)
    reg = build_registry(two_model, {})
    var = assemble_variation(reg.mean_inputs(), reg)
    lam_star = (math.sqrt(p * p + q * q) - q) / (2 * x * p * p)
    res = trace_adc(two_case, var)
    assert res.lambdas["collapse"] == pytest.approx(lam_star, rel=1e-3)


def test_criterion_5_chaos_machinery():
    # orthogonality at one million draws, three standard errors
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((1_000_000, 2))
    indices = chaos.multi_indices(2, 3)
    phi = chaos.basis_matrix(pts, indices)
    m = phi.shape[0]
    for i in range(len(indices)):
        for j in range(i + 1, len(indices)):
            prod = phi[:, i] * phi[:, j]
            se = prod.std(ddof=1) / math.sqrt(m)
            assert abs(prod.mean()) < 3 * se, (indices[i], indices[j])
    for i, idx in enumerate(indices):
        sq = phi[:, i] ** 2
        se = sq.std(ddof=1) / math.sqrt(m)
        assert abs(sq.mean() - chaos.basis_norm_sq(idx)) < 3 * se + 1e-12, idx

    # closed-form basis size vs multiset enumeration
    for n in range(1, 21):
        for p in range(1, 4):
            count = sum(
                1
                for k in range(p + 1)
                for _ in combinations_with_replacement(range(n), k)
            )
            assert chaos.basis_size(n, p) == count

    # three-term synthetic truth recovered exactly by the selection path
    design = chaos.collocation_design(12, n_rows=60)
    idx = design.indices
    truth = np.zeros(len(idx))
    truth[0] = 1.5
    j_lin = idx.index(tuple([0, 1] + [0] * 10))
    j_sq = idx.index(tuple([0, 0, 2] + [0] * 9))
    truth[j_lin] = 3.0
    truth[j_sq] = -2.0
    y = design.matrix @ truth
    model = chaos.fit_sparse(design, y, target_terms=3)
    assert set(np.flatnonzero(model.active)) == {0, j_lin, j_sq}
    assert np.allclose(model.coeffs[model.active], [1.5, 3.0, -2.0], atol=1e-8)

    # no sparsification at full budget: identical to the dense fit
    square = chaos.collocation_design(12, n_rows=91)
    rng = np.random.default_rng(2)
    coeffs = rng.normal(0, 1, 91) * np.exp(-0.15 * np.arange(91))
    y = square.matrix @ coeffs
    full = chaos.fit_full(square, y)
    sparse = chaos.fit_sparse(square, y, target_terms=91)
    assert np.allclose(full.coeffs, sparse.coeffs, atol=1e-10)


def test_criterion_6_conversion_curves():
    wind = WindTurbine("x", ("a",), 450.0, 4.0, 15.0, 25.0, 0.85)
    solar = SolarUnit("x", ("a",), 180.0, 150.0, 1000.0)

    # interior breakpoints continuous to 1e-12 (cut-out is a genuine jump)
    eps = 1e-9
    for b in (wind.v_cut_in, wind.v_rated):
        lo = wind_power_kw(b - eps, wind)
        hi = wind_power_kw(b + eps, wind)
        assert abs(hi - lo) < 1e-12 + 450.0 * eps / (15.0 - 4.0) * 2
    for b in (solar.r_certain, solar.r_standard):
        lo = solar_power_kw(b - eps, solar)
        hi = solar_power_kw(b + eps, solar)
        assert abs(hi - lo) < 1e-12 + 180.0 * eps / 1000.0 * 4

    # exact continuity at the breakpoints themselves
    assert wind_power_kw(4.0, wind) == 0.0
    assert wind_power_kw(15.0, wind) == 450.0
    assert solar_power_kw(150.0, solar) == pytest.approx(
        150.0 / 1000.0 * 180.0, abs=1e-12
    )
    assert solar_power_kw(1000.0, solar) == 180.0

    # monotone ramps
    v = np.linspace(4.0, 15.0, 400)
    pw = np.array([wind_power_kw(x, wind) for x in v])
    assert np.all(np.diff(pw) >= 0)
    r = np.linspace(0.0, 1000.0, 400)
    ps = np.array([solar_power_kw(x, solar) for x in r])
    assert np.all(np.diff(ps) >= 0)

    # reference evaluations
    assert wind_power_kw(10.0, wind) == pytest.approx(2700.0 / 11.0, rel=1e-12)
    assert solar_power_kw(500.0, solar) == pytest.approx(90.0, rel=1e-12)


def test_criterion_7_byte_identical_reports(model, scenario_doc):
    cfg = AssessmentConfig(
        method="all",
        mcs_samples=150,
        surrogate_samples=1000,
        sparse_terms=31,
        seed=11,
        workers=1,
    )
    first = run_assessment(model, scenario_doc, cfg).to_json()
    second = run_assessment(model, scenario_doc, cfg).to_json()
    assert first == second
