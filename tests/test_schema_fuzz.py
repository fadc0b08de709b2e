"""Schema fuzzing: a feeder or scenario document with one field replaced by an
arbitrary JSON value either loads or fails with a bad-input error, never with
an unrelated exception.  No trace runs here."""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from adcap.errors import ConfigurationError, FeederFormatError, TopologyError
from adcap.feeder import load_feeder
from adcap.stochastic import build_registry

from conftest import DATA, two_bus_doc

BAD_INPUT = (FeederFormatError, TopologyError, ConfigurationError)

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)  # past the float range too
    | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every dict-key / list-index path into a JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replaced(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _feeders():
    # the two-bus network plus every optional numeric field: a generator
    # with all of its numbers, a shunt bank, and a tapped transformer variant
    line = two_bus_doc(p_kw=10.0, q_kvar=2.0)
    line["buses"][1]["shunt_kvar"] = {"a": 5.0}
    line["generators"].append({
        "id": "g", "bus": "r", "phases": "a", "type": "pv", "p_kw": 1.0, "q_kvar": 0.0,
        "v0_pu": 1.0, "q_min_kvar": -5.0, "q_max_kvar": 5.0,
        "delta_p_kw": -2.0, "delta_q_kvar": -1.0,
    })
    transformer = two_bus_doc(p_kw=10.0)
    transformer["branches"][0].update(kind="transformer", connection="wye-wye", tap={"a": 1.02})
    return [line, transformer]


FEEDERS = _feeders()
FEEDER_EDITS = [(i, path) for i, doc in enumerate(FEEDERS) for path in _paths(doc)]
SCENARIO = json.loads((DATA / "scenario_ieee13.json").read_text())
SMALL_SCENARIO = {
    "loads_stochastic": [{"bus": "r", "phase": "a", "mean_kw": 5.0, "std_kw": 0.5}],
}


@settings(max_examples=200, deadline=None, database=None)
@given(edit=st.sampled_from(FEEDER_EDITS), value=JSON_VALUES)
def test_feeder_with_one_arbitrary_field_loads_or_raises_bad_input(edit, value):
    i, path = edit
    try:
        model = load_feeder(_replaced(FEEDERS[i], path, value))
        build_registry(model, SMALL_SCENARIO)
    except BAD_INPUT:
        pass


@settings(max_examples=200, deadline=None, database=None)
@given(path=st.sampled_from(list(_paths(SCENARIO))), value=JSON_VALUES)
def test_scenario_with_one_arbitrary_field_builds_or_raises_bad_input(model, path, value):
    try:
        build_registry(model, _replaced(SCENARIO, path, value))
    except BAD_INPUT:
        pass
