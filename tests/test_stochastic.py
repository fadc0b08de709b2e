import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adcap import assessment, chaos
from adcap.errors import ConfigurationError
from adcap.stochastic import (
    ForecastDistribution,
    SolarUnit,
    WindTurbine,
    assemble_variation,
    build_registry,
    physical_inputs,
    reactive_from_active,
    sample_inputs,
    solar_power_kw,
    standard_normals,
    wind_power_kw,
)

from oracles import variation_per_kind

TURBINE = WindTurbine(bus="680", phases=("a", "b", "c"), p_rated_kw=450.0,
                      v_cut_in=4.0, v_rated=15.0, v_cut_out=25.0)
PANEL = SolarUnit(bus="675", phases=("a", "b", "c"), p_rated_kw=180.0,
                  r_certain=150.0, r_standard=1000.0)


# -- conversion curves ------------------------------------------------------------


def test_wind_curve_values():
    # linear ramp: (v - v_in)/(v_rated - v_in) * P_r
    assert wind_power_kw(10.0, TURBINE) == pytest.approx(2700.0 / 11.0, rel=1e-12)
    assert wind_power_kw(3.0, TURBINE) == 0.0
    assert wind_power_kw(20.0, TURBINE) == 450.0
    assert wind_power_kw(26.0, TURBINE) == 0.0


def test_wind_curve_continuity():
    # the pieces chain continuously at cut-in and rated speed; the cut-out
    # is a genuine shutdown jump and is exercised separately
    for vb in (TURBINE.v_cut_in, TURBINE.v_rated):
        lo = wind_power_kw(vb - 1e-9, TURBINE)
        hi = wind_power_kw(vb + 1e-9, TURBINE)
        assert abs(hi - lo) < 1e-6
        assert abs(wind_power_kw(vb, TURBINE) - lo) < 1e-6
    assert wind_power_kw(TURBINE.v_cut_out, TURBINE) == 450.0
    assert wind_power_kw(TURBINE.v_cut_out + 1e-9, TURBINE) == 0.0


def test_wind_ramp_monotone():
    vs = np.linspace(TURBINE.v_cut_in, TURBINE.v_rated, 200)
    ps = [wind_power_kw(v, TURBINE) for v in vs]
    assert all(b >= a for a, b in zip(ps, ps[1:]))


def test_solar_curve_values():
    # below r_certain the output is quadratic r^2/(r_c r_std) * P_r
    assert solar_power_kw(100.0, PANEL) == pytest.approx(12.0, rel=1e-12)
    # between r_certain and r_standard it is linear r/r_std * P_r
    assert solar_power_kw(500.0, PANEL) == pytest.approx(90.0, rel=1e-12)
    assert solar_power_kw(1500.0, PANEL) == 180.0
    assert solar_power_kw(0.0, PANEL) == 0.0


def test_solar_curve_continuity():
    for rb in (PANEL.r_certain, PANEL.r_standard):
        lo = solar_power_kw(rb - 1e-9, PANEL)
        hi = solar_power_kw(rb + 1e-9, PANEL)
        assert abs(hi - lo) < 1e-6


def test_solar_monotone():
    rs = np.linspace(0.0, 1200.0, 400)
    ps = [solar_power_kw(r, PANEL) for r in rs]
    assert all(b >= a - 1e-12 for a, b in zip(ps, ps[1:]))


def test_reactive_from_active():
    q = reactive_from_active(2700.0 / 11.0, 0.85)
    assert q == pytest.approx((2700.0 / 11.0) * math.tan(math.acos(0.85)), rel=1e-12)
    assert reactive_from_active(100.0, 1.0) == pytest.approx(0.0, abs=1e-9)


# -- distributions and sampling ------------------------------------------------------


def test_affine_transform_exact():
    d = ForecastDistribution("load_active_power", 100.0, 5.0)
    assert d.from_standard_normal(math.sqrt(3.0)) == pytest.approx(
        100.0 + 5.0 * math.sqrt(3.0), rel=1e-14
    )


def test_ppf_matches_affine():
    # scipy is the oracle for the inverse-CDF route F^-1(Phi(xi))
    from scipy.stats import norm

    d = ForecastDistribution("wind_speed", 10.0, 0.6)
    for xi in (-2.5, -0.3, 0.0, 1.7):
        expect = norm.ppf(norm.cdf(xi), loc=d.mean, scale=d.std_dev)
        assert d.from_standard_normal(xi) == pytest.approx(expect, rel=1e-9)


def test_sampler_is_deterministic():
    dists = [
        ForecastDistribution("wind_speed", 10.0, 0.6),
        ForecastDistribution("load_active_power", 80.0, 4.0),
    ]
    a = sample_inputs(dists, 50, [7, 0])
    b = sample_inputs(dists, 50, [7, 0])
    c = sample_inputs(dists, 50, [7, 1])
    assert np.array_equal(a, b)
    assert not np.array_equal(a[0], c[0])


def test_block_draws_equal_the_one_pass_draw():
    # 2,051 rows is not a multiple of the 1,024-row block, and uneven
    # blocks read the same stream
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([4, 1])))
    whole = rng.standard_normal((2051, 12))
    for block_rows in (None, 1024, 1, 700, 2051, 5000):
        blocks = list(standard_normals(2051, 12, [4, 1], block_rows))
        assert [len(b) for b in blocks[:-1]] == [block_rows or 2051] * (len(blocks) - 1)
        assert np.concatenate(blocks).tobytes() == whole.tobytes(), block_rows


def test_sampler_moments():
    dists = [ForecastDistribution("wind_speed", 10.0, 0.6)]
    vs = sample_inputs(dists, 100_000, [3, 0])[:, 0]
    # 5 standard errors of slack on the mean; generous bound on the sd
    assert abs(vs.mean() - 10.0) < 5 * 0.6 / math.sqrt(100_000)
    assert abs(vs.std(ddof=1) - 0.6) < 0.01


def test_sampler_clamps_at_zero():
    dists = [ForecastDistribution("solar_radiation", 0.1, 1.0)]
    rs = sample_inputs(dists, 400, [11, 0])[:, 0]
    assert rs.min() >= 0.0
    assert np.count_nonzero(rs == 0.0) > 0  # negatives were truncated, not resampled


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), count=st.integers(1, 40))
def test_sampler_shapes(seed, count):
    dists = [
        ForecastDistribution("wind_speed", 9.0, 1.0),
        ForecastDistribution("solar_radiation", 400.0, 30.0),
        ForecastDistribution("load_active_power", 50.0, 2.0),
    ]
    us = sample_inputs(dists, count, [seed, 0])
    assert us.shape == (count, 3)


def test_physical_inputs_affine_exact():
    dists = [
        ForecastDistribution("wind_speed", 10.0, 0.6),
        ForecastDistribution("load_active_power", 100.0, 5.0),
    ]
    u = physical_inputs(np.array([[0.0, math.sqrt(3.0)]]), dists)[0]
    assert u[0] == pytest.approx(10.0, rel=1e-14)
    assert u[1] == pytest.approx(100.0 + 5.0 * math.sqrt(3.0), rel=1e-12)


def test_physical_inputs_clamps():
    dists = [ForecastDistribution("solar_radiation", 10.0, 100.0)]
    assert physical_inputs(np.array([[-3.0]]), dists)[0, 0] == 0.0


@settings(max_examples=30, deadline=None)
@given(x1=st.floats(-4, 4), x2=st.floats(-4, 4))
def test_physical_inputs_monotone(x1, x2):
    dists = [ForecastDistribution("load_active_power", 50.0, 8.0)]
    u1, u2 = physical_inputs(np.array([[x1], [x2]]), dists)[:, 0]
    if x1 < x2:
        assert u1 <= u2


def test_physical_inputs_rejects_bad_order_and_row_length():
    wind = ForecastDistribution("wind_speed", 10.0, 0.6)
    load = ForecastDistribution("load_active_power", 100.0, 5.0)
    with pytest.raises(ConfigurationError, match="ordered wind, solar, load"):
        physical_inputs(np.zeros((1, 2)), [load, wind])
    for xi in (np.zeros((1, 3)), np.zeros((1, 1)), np.zeros(2)):
        with pytest.raises(ConfigurationError, match="for 2 marginals"):
            physical_inputs(xi, [wind, load])


# -- registry and direction assembly ----------------------------------------------


def test_registry_dimension(registry):
    assert registry.dimension == 12
    kinds = [d.kind for d in registry.distributions()]
    assert kinds[:2] == ["wind_speed", "wind_speed"]
    assert kinds[2:4] == ["solar_radiation", "solar_radiation"]
    assert kinds[4:] == ["load_active_power"] * 8


def test_registry_rejects_unknown_bus(model):
    with pytest.raises(ConfigurationError):
        build_registry(model, {"wind": [{"bus": "999", "phases": "abc",
                                         "p_rated_kw": 100.0, "v_cut_in": 4.0,
                                         "v_rated": 15.0, "v_cut_out": 25.0,
                                         "mean_speed": 10.0, "std_speed": 0.5}]})


def test_mean_direction_totals(registry):
    var = assemble_variation(registry.mean_inputs(), registry)
    # growth side: stochastic loads (850.5 kW) plus deterministic records (882.5)
    assert var.load_increase_kw == pytest.approx(1733.0, rel=1e-9)
    # wind injects at constant power factor, solar at unity
    p680 = sum(var.dp_kw[("680", ph)] for ph in "abc")
    q680 = sum(var.dq_kvar[("680", ph)] for ph in "abc")
    assert p680 == pytest.approx(2700.0 / 11.0, rel=1e-9)
    assert q680 == pytest.approx((2700.0 / 11.0) * math.tan(math.acos(0.85)), rel=1e-9)
    p675 = sum(var.dp_kw[("675", ph)] for ph in "abc")
    assert p675 == pytest.approx(90.0 - 242.5 - 34.0 - 145.0, rel=1e-9)
    assert var.dq_kvar[("611", "c")] == pytest.approx(-40.0, rel=1e-9)
    assert var.dp_kw[("611", "c")] == pytest.approx(-85.0, rel=1e-9)


def test_zero_inputs_give_pure_load_growth(registry):
    var = assemble_variation(np.zeros(registry.dimension), registry)
    # no renewable output and no stochastic load: only the constant records remain
    assert var.load_increase_kw == pytest.approx(882.5, rel=1e-9)
    assert ("680", "a") not in var.dp_kw or var.dp_kw[("680", "a")] == 0.0


def test_one_loop_over_the_units_matches_the_per_kind_loops(registry):
    # bit for bit, in values and key order, on the bundled scenario's 200
    # seed-0 Monte Carlo rows, its 91 design rows and the zero row
    n = registry.dimension
    dists = registry.distributions()
    design = chaos.collocation_design(n, chaos.basis_size(n, chaos.ORDER))
    rows = np.vstack([
        sample_inputs(dists, 200, [0, assessment._STREAM_MCS]),
        physical_inputs(design.points, dists),
        np.zeros((1, n)),
    ])

    def bits(d):
        return [(key, float(v).hex()) for key, v in d.items()]

    for u in rows:
        got, want = assemble_variation(u, registry), variation_per_kind(u, registry)
        assert bits(got.dp_kw) == bits(want.dp_kw)
        assert bits(got.dq_kvar) == bits(want.dq_kvar)
        assert got.load_increase_kw.hex() == want.load_increase_kw.hex()


def test_assemble_variation_rejects_a_row_of_the_wrong_shape(registry):
    n = registry.dimension
    for u in (np.zeros(n - 1), np.zeros(n + 1), np.zeros((1, n))):
        with pytest.raises(ConfigurationError, match=f"registry's {n} inputs"):
            assemble_variation(u, registry)
