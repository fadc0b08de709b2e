import json
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adcap.errors import FeederFormatError, TopologyError
from adcap.feeder import (
    PHASES,
    branch_admittance_blocks,
    i_base_a,
    load_feeder,
    z_base_ohm,
)
from adcap.powerflow import NetworkCase

from conftest import DATA, two_bus_doc
from oracles import to_document

BUILD_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "build_feeder.py"


def test_round_trip(feeder_doc):
    model = load_feeder(feeder_doc)
    again = load_feeder(to_document(model))
    assert to_document(again) == to_document(model)
    assert [b.id for b in again.buses] == [b.id for b in model.buses]
    assert again.limits == model.limits


def test_node_enumeration(model):
    # nodes are (bus, phase) pairs in bus order, phase order a,b,c
    nodes = model.nodes
    assert nodes[0] == ("650", "a")
    assert ("645", "a") not in nodes  # two-phase bus
    assert ("611", "c") in nodes
    assert len(nodes) == sum(len(b.phases) for b in model.buses)


def test_per_unit_bases(model):
    bus = model.bus("632")
    v_base = bus.base_kv_ll * 1e3 / np.sqrt(3.0)
    assert v_base == pytest.approx(2401.777, abs=1e-3)
    assert z_base_ohm(bus) == pytest.approx(5.76853, rel=1e-5)
    assert i_base_a(bus) == pytest.approx(1e6 / 2401.777, rel=1e-6)


def test_admittance_dimensions(model):
    y = NetworkCase(model).y
    n = len(model.nodes)
    assert y.shape == (n, n)
    assert not y.flags.writeable
    # hermitian-symmetric structure for a passive reciprocal network
    assert np.allclose(y, y.T)


def test_admittance_row_sums_zero_without_shunts():
    # a network with no shunt elements and unity taps has zero row sums:
    # injecting the same voltage at every node drives no current anywhere
    doc = two_bus_doc(x_ohm=0.25)
    doc["branches"][0]["r_ohm"] = [[0.1]]
    model = load_feeder(doc)
    rs = NetworkCase(model).y.sum(axis=1)
    assert np.max(np.abs(rs)) < 1e-12


def test_line_block_signs():
    doc = two_bus_doc(x_ohm=0.5)
    model = load_feeder(doc)
    br = model.branches[0]
    zb = z_base_ohm(model.bus("s"))
    yff, yft, ytf, ytt = branch_admittance_blocks(br, zb, zb)
    y = 1.0 / (0.5j / zb)
    assert yff[0, 0] == pytest.approx(y)
    assert yft[0, 0] == pytest.approx(-y)
    assert ytf[0, 0] == pytest.approx(-y)
    assert ytt[0, 0] == pytest.approx(y)


def test_wye_transformer_tap_blocks():
    # off-nominal tap r on the from side: Yff scales by r^2, couplings by r
    doc = two_bus_doc()
    doc["branches"][0] = {
        "id": "xf", "from": "s", "to": "r", "phases": "a",
        "kind": "transformer", "connection": "wye-wye",
        "r_ohm": [[0.0]], "x_ohm": [[0.1]],
        "ampacity_a": 100.0, "tap": {"a": 1.05},
    }
    model = load_feeder(doc)
    br = model.branches[0]
    zb = z_base_ohm(model.bus("s"))
    yff, yft, ytf, ytt = branch_admittance_blocks(br, zb, zb)
    ys = 1.0 / (0.1j / zb)
    assert yff[0, 0] == pytest.approx(1.05 * 1.05 * ys)
    assert yft[0, 0] == pytest.approx(-1.05 * ys)
    assert ytf[0, 0] == pytest.approx(-1.05 * ys)
    assert ytt[0, 0] == pytest.approx(ys)


def test_shunt_capacitor_enters_diagonal(model):
    case = NetworkCase(model)
    i = case.index[("611", "c")]
    # remove the bank and the diagonal must drop by exactly j*kvar/1000
    doc = to_document(model)
    for b in doc["buses"]:
        if b["id"] == "611":
            kvar = b.pop("shunt_kvar")["c"]
    y2 = NetworkCase(load_feeder(doc)).y
    delta = case.y[i, i] - y2[i, i]
    assert delta == pytest.approx(1j * kvar / 1000.0)


@pytest.mark.parametrize(
    "mutate,exc",
    [
        (lambda d: d["buses"][1].update(type="slack", v0_pu=1.0), TopologyError),  # two slacks
        (lambda d: d["buses"][0].pop("v0_pu"), FeederFormatError),
        (lambda d: d["branches"][0].update(ampacity_a=-5.0), FeederFormatError),
        (lambda d: d["loads"].append({"bus": "r", "phase": "b", "p_kw": 1.0, "q_kvar": 0.0}),
         FeederFormatError),  # phase not on bus
        (lambda d: d["branches"].clear(), TopologyError),  # disconnected
        (lambda d: d["branches"][0].update(to="nowhere"), FeederFormatError),
        (lambda d: d["limits"].update(v_min_pu=2.5), FeederFormatError),
        (lambda d: d["buses"].append(dict(d["buses"][1])), TopologyError),  # duplicate bus
        (lambda d: d["branches"].append(dict(d["branches"][0])), TopologyError),  # duplicate branch
        (lambda d: d["generators"].extend(  # duplicate generator
            [{"id": "g", "bus": "r", "phases": "a", "type": "pq", "p_kw": 1.0}] * 2),
         TopologyError),
        (lambda d: d["buses"][1].update(v0_pu=1.0), FeederFormatError),  # v0_pu on a pq bus
    ],
)
def test_validation_rejects(mutate, exc):
    doc = two_bus_doc(p_kw=10.0)
    mutate(doc)
    with pytest.raises(exc):
        load_feeder(doc)


def test_asymmetric_impedance_rejected():
    doc = two_bus_doc()
    doc["branches"][0]["phases"] = "ab"
    doc["buses"][0]["phases"] = "ab"
    doc["buses"][1]["phases"] = "ab"
    doc["branches"][0]["r_ohm"] = [[0.1, 0.02], [0.03, 0.1]]
    doc["branches"][0]["x_ohm"] = [[0.3, 0.1], [0.1, 0.3]]
    doc["branches"][0]["b_shunt_s"] = [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(FeederFormatError):
        load_feeder(doc)


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(0.01, 5.0),
    x=st.floats(0.01, 5.0),
    tap=st.floats(0.9, 1.1),
)
def test_transformer_block_consistency(r, x, tap):
    # any wye-wye 2x2 block set satisfies Yft = -tap*ys and Yff*Ytt = Yft*Ytf
    doc = two_bus_doc()
    doc["branches"][0] = {
        "id": "xf", "from": "s", "to": "r", "phases": "a",
        "kind": "transformer", "connection": "wye-wye",
        "r_ohm": [[r]], "x_ohm": [[x]],
        "ampacity_a": 10.0, "tap": {"a": tap},
    }
    model = load_feeder(doc)
    zb = z_base_ohm(model.bus("s"))
    yff, yft, ytf, ytt = branch_admittance_blocks(model.branches[0], zb, zb)
    assert yff[0, 0] * ytt[0, 0] == pytest.approx(yft[0, 0] * ytf[0, 0], rel=1e-12)
    ys = 1.0 / ((r + 1j * x) / zb)
    assert yft[0, 0] == pytest.approx(-tap * ys, rel=1e-12)


def test_json_nested_too_deep_is_a_format_error():
    with pytest.raises(FeederFormatError, match="not valid JSON: maximum recursion depth"):
        load_feeder("[" * 100_000 + "]" * 100_000)


def test_json_string_input(feeder_doc):
    model = load_feeder(json.dumps(feeder_doc))
    assert model.name == feeder_doc["name"]


def test_total_load(model):
    p, q = model.total_load()
    assert p == pytest.approx(1733.0)
    assert q == pytest.approx(1051.0)


def test_phase_constants():
    assert PHASES == ("a", "b", "c")


def test_build_script_reproduces_bundled_data():
    # the bundled files are the calibration script's output, byte for byte;
    # run_path compiles the script in memory, so nothing is written
    script = runpy.run_path(str(BUILD_SCRIPT))
    feeder = json.dumps(script["build_feeder"](), indent=2) + "\n"
    scenario = json.dumps(script["build_scenario"](), indent=2) + "\n"
    assert feeder == (DATA / "ieee13_mod.json").read_text()
    assert scenario == (DATA / "scenario_ieee13.json").read_text()


def test_build_script_calibration_runs(capsys):
    # the calibration trace goes through the same check_limits/trace_adc API
    # as the program
    runpy.run_path(str(BUILD_SCRIPT))["calibrate"]()
    out = capsys.readouterr().out
    assert "lambdas:" in out and "capped=False" in out
