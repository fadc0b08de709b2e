import json
from pathlib import Path

import pytest

from adcap.feeder import load_feeder
from adcap.powerflow import NetworkCase
from adcap.stochastic import build_registry

DATA = Path(__file__).resolve().parents[1] / "src" / "adcap" / "data"


@pytest.fixture(scope="session")
def feeder_doc():
    return json.loads((DATA / "ieee13_mod.json").read_text())


@pytest.fixture(scope="session")
def scenario_doc():
    return json.loads((DATA / "scenario_ieee13.json").read_text())


@pytest.fixture(scope="session")
def model(feeder_doc):
    return load_feeder(feeder_doc)


@pytest.fixture(scope="session")
def case(model):
    return NetworkCase(model)


@pytest.fixture(scope="session")
def registry(model, scenario_doc):
    return build_registry(model, scenario_doc)


def two_bus_doc(p_kw=0.0, q_kvar=0.0, x_ohm=0.3, v_min=0.01):
    """Single-phase two-bus network with z_base = 1 ohm (base_kv_ll = sqrt(3)).

    With the 1 MVA per-phase base, 1000 kW = 1 pu, so closed-form per-unit
    expressions for the receiving-end voltage apply directly.
    """
    return {
        "name": "two-bus",
        "buses": [
            {"id": "s", "type": "slack", "phases": "a", "base_kv_ll": 1.7320508075688772, "v0_pu": 1.0},
            {"id": "r", "type": "pq", "phases": "a", "base_kv_ll": 1.7320508075688772},
        ],
        "branches": [
            {
                "id": "ln", "from": "s", "to": "r", "phases": "a", "kind": "line",
                "r_ohm": [[0.0]], "x_ohm": [[x_ohm]],
                "b_shunt_s": [[0.0]], "ampacity_a": 1e9,
            }
        ],
        "loads": [{"bus": "r", "phase": "a", "p_kw": p_kw, "q_kvar": q_kvar}],
        "generators": [],
        "limits": {"v_min_pu": v_min, "v_max_pu": 2.0},
    }


def pv_two_bus_doc():
    """two_bus_doc whose receiving bus is held at 1 pu by a pv generator
    without reactive limits, so no voltage magnitude is free."""
    doc = two_bus_doc()
    doc["buses"][1].update(type="pv", v0_pu=1.0)
    doc["generators"].append(
        {"id": "g", "bus": "r", "phases": "a", "type": "pv", "v0_pu": 1.0}
    )
    return doc
