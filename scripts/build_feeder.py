"""Generate the bundled 13-node feeder and scenario data files.

The feeder is a derivative of the classic 13-node unbalanced test feeder:
every spot/distributed load is halved (totals 1733 kW / 1051 kvar), shunt
capacitor banks are halved to match, and series impedances are scaled up
(trunk and laterals separately) so the delivery margins land in the study's
range on a feeder whose exact modifications were never published.  Scale
factors, regulator taps and ampacities below are the calibration knobs.

Run with --write to regenerate src/adcap/data/*.json, or --calibrate to
trace the mean-input direction and print the margin diagnostics.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

# --- calibration knobs --------------------------------------------------------

TRUNK_SCALE = 1.75
LAT_611_SCALE = 4.0  # weak c-phase lateral 684-611
TAPS = {"a": 1.040, "b": 1.022, "c": 1.045}
CAP_675_KVAR = {"a": 200.0, "b": 100.0, "c": 200.0}
CAP_611_KVAR = 100.0
AMP_632_671 = 421.4

AMPACITY = {
    "ln-650-rg60": 700.0,
    "ln-rg60-632": 730.0,
    "ln-632-633": 340.0,
    "ln-632-645": 230.0,
    "ln-645-646": 230.0,
    "ln-632-671": AMP_632_671,
    "ln-671-684": 230.0,
    "ln-671-680": 730.0,
    "ln-684-611": 230.0,
    "ln-684-652": 310.0,
    "ln-671-692": 600.0,
    "ln-692-675": 354.0,
    "xf-633-634": 80.0,
}

V_MIN, V_MAX = 0.90, 1.05

# --- line construction data (ohm/mile, microsiemens/mile) ----------------------

Z601 = [
    [0.3465 + 1.0179j, 0.1560 + 0.5017j, 0.1580 + 0.4236j],
    [0.1560 + 0.5017j, 0.3375 + 1.0478j, 0.1535 + 0.3849j],
    [0.1580 + 0.4236j, 0.1535 + 0.3849j, 0.3414 + 1.0348j],
]
B601 = [
    [6.2998, -1.9958, -1.2595],
    [-1.9958, 5.9597, -0.7417],
    [-1.2595, -0.7417, 5.6386],
]
Z602 = [
    [0.7526 + 1.1814j, 0.1580 + 0.4236j, 0.1560 + 0.5017j],
    [0.1580 + 0.4236j, 0.7475 + 1.1983j, 0.1535 + 0.3849j],
    [0.1560 + 0.5017j, 0.1535 + 0.3849j, 0.7436 + 1.2112j],
]
B602 = [
    [5.6990, -1.0817, -1.6905],
    [-1.0817, 5.1795, -0.6588],
    [-1.6905, -0.6588, 5.4246],
]
Z603 = [  # phases b, c
    [1.3294 + 1.3471j, 0.2066 + 0.4591j],
    [0.2066 + 0.4591j, 1.3238 + 1.3569j],
]
B603 = [[4.7097, -0.8999], [-0.8999, 4.6658]]
Z604 = [  # phases a, c
    [1.3238 + 1.3569j, 0.2066 + 0.4591j],
    [0.2066 + 0.4591j, 1.3294 + 1.3471j],
]
B604 = [[4.6658, -0.8999], [-0.8999, 4.7097]]
Z605 = [[1.3292 + 1.3475j]]  # phase c
B605 = [[4.5193]]
Z606 = [  # underground, phases a, b, c
    [0.7982 + 0.4463j, 0.3192 + 0.0328j, 0.2849 - 0.0143j],
    [0.3192 + 0.0328j, 0.7891 + 0.4041j, 0.3192 + 0.0328j],
    [0.2849 - 0.0143j, 0.3192 + 0.0328j, 0.7982 + 0.4463j],
]
B606 = [[96.8897, 0.0, 0.0], [0.0, 96.8897, 0.0], [0.0, 0.0, 96.8897]]
Z607 = [[1.3425 + 0.5124j]]  # underground, phase a
B607 = [[88.9912]]


def _line(bid, f, t, phases, zmat, bmat, length_ft, scale):
    miles = length_ft / 5280.0
    k = len(phases)
    r = [[zmat[i][j].real * miles * scale for j in range(k)] for i in range(k)]
    x = [[zmat[i][j].imag * miles * scale for j in range(k)] for i in range(k)]
    b = [[bmat[i][j] * 1e-6 * miles for j in range(k)] for i in range(k)]
    return {
        "id": bid,
        "from": f,
        "to": t,
        "phases": phases,
        "kind": "line",
        "r_ohm": r,
        "x_ohm": x,
        "b_shunt_s": b,
        "ampacity_a": AMPACITY[bid],
    }


def _tiny_line(bid, f, t, phases, r, x):
    k = len(phases)
    return {
        "id": bid,
        "from": f,
        "to": t,
        "phases": phases,
        "kind": "line",
        "r_ohm": [[r if i == j else 0.0 for j in range(k)] for i in range(k)],
        "x_ohm": [[x if i == j else 0.0 for j in range(k)] for i in range(k)],
        "b_shunt_s": [[0.0] * k for _ in range(k)],
        "ampacity_a": AMPACITY[bid],
    }


def build_feeder() -> dict:
    buses = [
        {"id": "650", "type": "slack", "phases": "abc", "base_kv_ll": 4.16, "v0_pu": 1.0},
        {"id": "rg60", "type": "pq", "phases": "abc", "base_kv_ll": 4.16},
        {"id": "632", "type": "pq", "phases": "abc", "base_kv_ll": 4.16},
        {"id": "633", "type": "pq", "phases": "abc", "base_kv_ll": 4.16},
        {
            "id": "634", "type": "pq", "phases": "abc", "base_kv_ll": 0.48,
        },
        {"id": "645", "type": "pq", "phases": "bc", "base_kv_ll": 4.16},
        {"id": "646", "type": "pq", "phases": "bc", "base_kv_ll": 4.16},
        {"id": "671", "type": "pq", "phases": "abc", "base_kv_ll": 4.16},
        {"id": "680", "type": "pq", "phases": "abc", "base_kv_ll": 4.16},
        {"id": "684", "type": "pq", "phases": "ac", "base_kv_ll": 4.16},
        {
            "id": "611", "type": "pq", "phases": "c", "base_kv_ll": 4.16,
            "shunt_kvar": {"c": CAP_611_KVAR},
        },
        {"id": "652", "type": "pq", "phases": "a", "base_kv_ll": 4.16},
        {"id": "692", "type": "pq", "phases": "abc", "base_kv_ll": 4.16},
        {
            "id": "675", "type": "pq", "phases": "abc", "base_kv_ll": 4.16,
            "shunt_kvar": dict(CAP_675_KVAR),
        },
    ]

    s = TRUNK_SCALE
    branches = [
        {
            "id": "ln-650-rg60",
            "from": "650",
            "to": "rg60",
            "phases": "abc",
            "kind": "transformer",
            "connection": "wye-wye",
            "r_ohm": [[0.001 if i == j else 0.0 for j in range(3)] for i in range(3)],
            "x_ohm": [[0.01 if i == j else 0.0 for j in range(3)] for i in range(3)],
            "ampacity_a": AMPACITY["ln-650-rg60"],
            "tap": dict(TAPS),
        },
        _line("ln-rg60-632", "rg60", "632", "abc", Z601, B601, 2000, s),
        _line("ln-632-633", "632", "633", "abc", Z602, B602, 500, s),
        {
            "id": "xf-633-634",
            "from": "633",
            "to": "634",
            "phases": "abc",
            "kind": "transformer",
            "connection": "wye-wye",
            # 500 kVA 4.16/0.48, r 1.1% x 2% on its own base, referred to 4.16 kV
            "r_ohm": [[0.38070528 if i == j else 0.0 for j in range(3)] for i in range(3)],
            "x_ohm": [[0.69219142 if i == j else 0.0 for j in range(3)] for i in range(3)],
            "ampacity_a": AMPACITY["xf-633-634"],
        },
        _line("ln-632-645", "632", "645", "bc", Z603, B603, 500, s),
        _line("ln-645-646", "645", "646", "bc", Z603, B603, 300, s),
        _line("ln-632-671", "632", "671", "abc", Z601, B601, 2000, s),
        _line("ln-671-684", "671", "684", "ac", Z604, B604, 300, s),
        _line("ln-671-680", "671", "680", "abc", Z601, B601, 1000, s),
        _line("ln-684-611", "684", "611", "c", Z605, B605, 300, LAT_611_SCALE),
        _line("ln-684-652", "684", "652", "a", Z607, B607, 800, s),
        _tiny_line("ln-671-692", "671", "692", "abc", 0.001, 0.001),
        _line("ln-692-675", "692", "675", "abc", Z606, B606, 500, s),
    ]

    # spot + distributed loads, all halved from the classic data; the
    # distributed 632-671 load is split equally between its end buses
    loads = [
        {"bus": "634", "phase": "a", "p_kw": 80.0, "q_kvar": 55.0},
        {"bus": "634", "phase": "b", "p_kw": 60.0, "q_kvar": 45.0},
        {"bus": "634", "phase": "c", "p_kw": 60.0, "q_kvar": 45.0},
        {"bus": "645", "phase": "b", "p_kw": 85.0, "q_kvar": 62.5},
        {"bus": "646", "phase": "b", "p_kw": 115.0, "q_kvar": 66.0},
        {"bus": "652", "phase": "a", "p_kw": 64.0, "q_kvar": 43.0},
        {"bus": "671", "phase": "a", "p_kw": 192.5, "q_kvar": 110.0},
        {"bus": "671", "phase": "b", "p_kw": 192.5, "q_kvar": 110.0},
        {"bus": "671", "phase": "c", "p_kw": 192.5, "q_kvar": 110.0},
        {"bus": "675", "phase": "a", "p_kw": 242.5, "q_kvar": 95.0},
        {"bus": "675", "phase": "b", "p_kw": 34.0, "q_kvar": 30.0},
        {"bus": "675", "phase": "c", "p_kw": 145.0, "q_kvar": 106.0},
        {"bus": "692", "phase": "c", "p_kw": 85.0, "q_kvar": 75.5},
        {"bus": "611", "phase": "c", "p_kw": 85.0, "q_kvar": 40.0},
        {"bus": "632", "phase": "a", "p_kw": 4.25, "q_kvar": 2.5},
        {"bus": "632", "phase": "b", "p_kw": 16.5, "q_kvar": 9.5},
        {"bus": "632", "phase": "c", "p_kw": 29.25, "q_kvar": 17.0},
        {"bus": "671", "phase": "a", "p_kw": 4.25, "q_kvar": 2.5},
        {"bus": "671", "phase": "b", "p_kw": 16.5, "q_kvar": 9.5},
        {"bus": "671", "phase": "c", "p_kw": 29.25, "q_kvar": 17.0},
    ]

    # deterministic load-growth direction for every load *not* in the
    # stochastic set, entered as constant (negative) generator deltas
    generators = [
        {"id": "gr-634-b", "bus": "634", "phases": "b", "type": "pq",
         "delta_p_kw": -60.0, "delta_q_kvar": -45.0},
        {"id": "gr-634-c", "bus": "634", "phases": "c", "type": "pq",
         "delta_p_kw": -60.0, "delta_q_kvar": -45.0},
        {"id": "gr-671", "bus": "671", "phases": "abc", "type": "pq",
         "delta_p_kw": -577.5, "delta_q_kvar": -330.0},
        {"id": "gr-692-c", "bus": "692", "phases": "c", "type": "pq",
         "delta_p_kw": -85.0, "delta_q_kvar": -75.5},
        {"id": "gr-632-a", "bus": "632", "phases": "a", "type": "pq",
         "delta_p_kw": -4.25, "delta_q_kvar": -2.5},
        {"id": "gr-632-b", "bus": "632", "phases": "b", "type": "pq",
         "delta_p_kw": -16.5, "delta_q_kvar": -9.5},
        {"id": "gr-632-c", "bus": "632", "phases": "c", "type": "pq",
         "delta_p_kw": -29.25, "delta_q_kvar": -17.0},
        {"id": "gr-671-a", "bus": "671", "phases": "a", "type": "pq",
         "delta_p_kw": -4.25, "delta_q_kvar": -2.5},
        {"id": "gr-671-b", "bus": "671", "phases": "b", "type": "pq",
         "delta_p_kw": -16.5, "delta_q_kvar": -9.5},
        {"id": "gr-671-c", "bus": "671", "phases": "c", "type": "pq",
         "delta_p_kw": -29.25, "delta_q_kvar": -17.0},
    ]

    return {
        "name": "feeder13-halved",
        "buses": buses,
        "branches": branches,
        "loads": loads,
        "generators": generators,
        "limits": {"v_min_pu": V_MIN, "v_max_pu": V_MAX},
    }


def build_scenario() -> dict:
    # stochastic set: 2 wind + 2 solar + 8 single-phase loads at 6 buses,
    # load sigma = 5% of the base value
    def load(bus, phase, mean, q_over_p):
        return {
            "bus": bus,
            "phase": phase,
            "mean_kw": mean,
            "std_kw": 0.05 * mean,
            "power_factor": math.cos(math.atan(q_over_p)),
        }

    return {
        "wind": [
            {
                "bus": "680", "phases": "abc", "p_rated_kw": 450.0,
                "v_cut_in": 4.0, "v_rated": 15.0, "v_cut_out": 25.0,
                "mean_speed": 10.0, "std_speed": 0.6, "power_factor": 0.85,
            },
            {
                "bus": "634", "phases": "abc", "p_rated_kw": 300.0,
                "v_cut_in": 4.0, "v_rated": 15.0, "v_cut_out": 25.0,
                "mean_speed": 10.0, "std_speed": 0.6, "power_factor": 0.85,
            },
        ],
        "solar": [
            {
                "bus": "675", "phases": "abc", "p_rated_kw": 180.0,
                "r_certain": 150.0, "r_standard": 1000.0,
                "mean_radiation": 500.0, "std_radiation": 25.0,
            },
            {
                "bus": "692", "phases": "abc", "p_rated_kw": 240.0,
                "r_certain": 150.0, "r_standard": 1000.0,
                "mean_radiation": 500.0, "std_radiation": 25.0,
            },
        ],
        "loads_stochastic": [
            load("634", "a", 80.0, 55.0 / 80.0),
            load("645", "b", 85.0, 62.5 / 85.0),
            load("646", "b", 115.0, 66.0 / 115.0),
            load("652", "a", 64.0, 43.0 / 64.0),
            load("611", "c", 85.0, 40.0 / 85.0),
            load("675", "a", 242.5, 95.0 / 242.5),
            load("675", "b", 34.0, 30.0 / 34.0),
            load("675", "c", 145.0, 106.0 / 145.0),
        ],
    }


def calibrate():
    import numpy as np

    from adcap.continuation import check_limits, trace_adc
    from adcap.feeder import load_feeder
    from adcap.powerflow import Curve, NetworkCase, branch_flows, solve
    from adcap.stochastic import assemble_variation, build_registry

    model = load_feeder(build_feeder())
    case = NetworkCase(model)
    registry = build_registry(model, build_scenario())

    def solve_at(lam=0.0, direction=None):
        curve = Curve(case, direction, {})
        return solve(curve, curve.pack(case.flat_state(), lam))

    base = solve_at()
    status = check_limits(case, base)
    print(f"base: iters={base.iterations} mism={base.max_mismatch:.2e}")
    mon = ~case.slack_mask
    order = np.argsort(base.vm[mon])
    nodes = [case.nodes[i] for i in np.flatnonzero(mon)]
    print("lowest voltages:", [(f"{nodes[i][0]}.{nodes[i][1]}", round(float(base.vm[mon][i]), 4)) for i in order[:5]])
    print("highest voltages:", [(f"{nodes[i][0]}.{nodes[i][1]}", round(float(base.vm[mon][i]), 4)) for i in order[-3:]])
    print(f"margins: v_lo={status.v_lower_margin:.4f} at {status.v_lower_node}, "
          f"v_hi={status.v_upper_margin:.4f}, th={status.thermal_margin:.4f} at {status.thermal_branch}")

    var = assemble_variation(registry.mean_inputs(), registry)
    print(f"direction: load increase {var.load_increase_kw:.1f} kW")
    res = trace_adc(case, var)
    print(f"lambdas: {({k: round(v, 4) for k, v in res.lambdas.items()})}")
    print(f"adc MW: {({k: round(v, 4) for k, v in res.adc_mw.items()})}")
    print(f"targets: v 0.5049 t 0.7231 c 1.4091 (MW 0.875/1.253/2.442)")
    print(f"binding: {res.binding_element}, capped={res.capped}, solves={res.n_solves}")

    # branch currents at the thermal-target lambda for ampacity calibration
    lam_t = 0.7231
    st = solve_at(lam_t, case.direction_arrays(var))
    print(f"currents at lambda={lam_t}:")
    flows = branch_flows(case, st)
    for k, bid in enumerate(case.branch_ids):
        amps = max(a for a, (b, _, _) in zip(flows.amps, case.branch_rows) if b == bid)
        print(f"  {bid}: {amps:7.1f} A  (rated {AMPACITY[bid]:.0f}, loading {flows.loading[k]:.3f})")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", action="store_true", help="write the data files")
    ap.add_argument("--calibrate", action="store_true", help="trace mean direction")
    args = ap.parse_args()
    if args.write:
        out = Path(__file__).resolve().parents[1] / "src" / "adcap" / "data"
        out.mkdir(parents=True, exist_ok=True)
        (out / "ieee13_mod.json").write_text(json.dumps(build_feeder(), indent=2) + "\n")
        (out / "scenario_ieee13.json").write_text(json.dumps(build_scenario(), indent=2) + "\n")
        print(f"wrote {out}/ieee13_mod.json and scenario_ieee13.json")
    if args.calibrate:
        calibrate()
    if not (args.write or args.calibrate):
        ap.error("nothing to do; pass --write and/or --calibrate")


if __name__ == "__main__":
    main()
