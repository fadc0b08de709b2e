"""Per-trace differences of the continuation trace between two source trees.

    python scripts/trace_delta.py OLD_SRC NEW_SRC [--samples N]

OLD_SRC and NEW_SRC are directories that hold an ``adcap`` package (a
checkout's ``src``) whose inputs are rows (``stochastic.physical_inputs``).
Each tree is imported in its own subprocess, which traces, on the bundled
feeder and scenario, N Monte Carlo inputs (the first N draws of the seed-0
MCS stream, as ``adc run --seed 0`` draws them) and then every point of the
full PCE collocation design (91 on the bundled scenario), one ``trace_adc``
call each.  It then traces the PV-675 feeder: the bundled feeder with bus
675 held at 1 pu by a +-300 kvar pv generator, whose traces switch PV phases
to their reactive limits, which the bundled feeder's never do.  There it
traces the scenario's mean input and then the first 200 draws of the
seed-0 MCS stream.  Both trees must have ``chaos.ORDER`` and
``chaos.collocation_design(dimension, n_rows)``: an older tree, which has
``chaos.PceConfig`` instead, cannot be compared.

Printed: per class, the max, median and 99th percentile of |delta lambda|
and of |delta lambda| / lambda (lambda from OLD_SRC) over the traces that
succeed in both trees; the traces whose binding class, binding labels
(``AdcResult.binding_element``, or ``continuation.binding_label`` of it in
an older tree) or ``capped`` flag differ; the failed traces of each tree
(a convergence failure, a singular Jacobian or a zero direction, the
failures a run counts per trace); each tree's mean ``n_solves`` and
``n_newton`` per successful trace; and, for a tree whose tracer has
``_Tracer._cross`` and ``_Tracer._fold``, those Newton iterations split
into the march (every natural step, failed ones included, and the base
case in a tree that counts it per trace), each class's crossing and the
fold, per successful trace.  The PV-675 traces get the same lines after
those, each prefixed "pv-675 ".

The tolerances every trace-kernel change must meet are checked on both
sets of traces, and the exit status says whether they hold:

- 0: they hold;
- 1: the two trees drew different inputs;
- 2: a binding or ``capped`` mismatch, a trace that fails only in NEW_SRC,
  or a |delta lambda| / lambda above 1e-8 (voltage, thermal) or 1e-7
  (collapse); the last line names each breach, once however many sets
  breach it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

CLASSES = ("voltage", "thermal", "collapse")
REL_TOL = (1e-8, 1e-8, 1e-7)  # largest |delta lambda| / lambda per class
SPLIT = ("voltage", "thermal", "fold")  # Newton iterations counted apart from the march


def count_newton(tracer_cls, split: dict) -> bool:
    """Wrap ``tracer_cls._cross`` and ``_fold``, where they exist, to add
    the Newton iterations of each call to ``split``, a crossing's under its
    class and the fold's under "fold"; returns whether they exist."""
    def counted(method, key):
        def wrapped(self, *args):
            before = self.n_newton
            try:
                return method(self, *args)
            finally:
                split[key(args)] += self.n_newton - before
        return wrapped

    if not (hasattr(tracer_cls, "_cross") and hasattr(tracer_cls, "_fold")):
        return False
    tracer_cls._cross = counted(tracer_cls._cross, lambda args: args[0])
    tracer_cls._fold = counted(tracer_cls._fold, lambda args: "fold")
    return True


def pv_675(feeder_doc: dict) -> dict:
    """The PV-675 feeder (module docstring) as a copy of the bundled
    feeder's document: within its reactive limits at the base case, phases
    c and a at their upper limit on the way up, phase b at its lower limit
    at the fold of the mean input."""
    doc = json.loads(json.dumps(feeder_doc))
    next(b for b in doc["buses"] if b["id"] == "675").update(type="pv", v0_pu=1.0)
    doc["generators"].append({
        "id": "pv-675", "bus": "675", "phases": "abc", "type": "pv",
        "v0_pu": 1.0, "q_min_kvar": -300.0, "q_max_kvar": 300.0,
    })
    return doc


def trace_all(samples: int) -> dict:
    """Trace the inputs with the ``adcap`` on ``sys.path``: per set of
    traces ("bundled", "pv-675"), one dict per trace."""
    import adcap
    from adcap import assessment, chaos, continuation, stochastic
    from adcap.feeder import load_feeder
    from adcap.powerflow import NetworkCase

    data = Path(adcap.__file__).parent / "data"
    feeder_doc = json.loads((data / "ieee13_mod.json").read_text())
    scenario_doc = json.loads((data / "scenario_ieee13.json").read_text())
    model = load_feeder(feeder_doc)
    registry = stochastic.build_registry(model, scenario_doc)
    dists = registry.distributions()
    n = registry.dimension
    design = chaos.collocation_design(n, n_rows=chaos.basis_size(n, chaos.ORDER))
    inputs = np.vstack([
        stochastic.sample_inputs(dists, samples, [0, assessment._STREAM_MCS]),
        stochastic.physical_inputs(design.points, dists),
    ])
    pv_model = load_feeder(pv_675(feeder_doc))
    pv_registry = stochastic.build_registry(pv_model, scenario_doc)
    pv_inputs = np.vstack([
        pv_registry.mean_inputs(),
        stochastic.sample_inputs(pv_registry.distributions(), 200, [0, assessment._STREAM_MCS]),
    ])

    split = dict.fromkeys(SPLIT, 0)
    counted = count_newton(continuation._Tracer, split)
    return {
        "bundled": trace_rows(NetworkCase(model), registry, inputs, split, counted),
        "pv-675": trace_rows(NetworkCase(pv_model), pv_registry, pv_inputs, split, counted),
    }


def trace_rows(case, registry, inputs, split: dict, counted: bool) -> list:
    """One dict per input row traced on ``case``; ``split`` is the dict
    ``count_newton`` adds to, read when ``counted``."""
    from adcap import continuation, stochastic
    from adcap.errors import ConvergenceError, SingularJacobianError, ZeroDirectionError

    # a tree older than the labels in AdcResult formats elements through its binding_label
    label = getattr(continuation, "binding_label", lambda element: element)
    rows = []
    for u in inputs:
        row = {"input": u.tolist()}
        split.update(dict.fromkeys(SPLIT, 0))
        try:
            res = continuation.trace_adc(case, stochastic.assemble_variation(u, registry))
        except (ConvergenceError, SingularJacobianError, ZeroDirectionError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            row.update(
                lambdas=[res.lambdas[c] for c in CLASSES],
                binding=[res.binding_class]
                + [label(res.binding_element[c]) for c in CLASSES],
                capped=res.capped,
                n_solves=res.n_solves,
                n_newton=res.n_newton,
            )
            if counted:
                row["split"] = dict(split)
        rows.append(row)
    return rows


def run_tree(src: str, samples: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, __file__, "--child", "--samples", str(samples)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", nargs="?")
    ap.add_argument("new_src", nargs="?")
    ap.add_argument("--samples", type=int, default=1000, help="MCS inputs (default 1000)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        json.dump(trace_all(args.samples), sys.stdout)
        return 0
    if args.new_src is None:
        ap.error("OLD_SRC and NEW_SRC are required")

    old, new = run_tree(args.old_src, args.samples), run_tree(args.new_src, args.samples)
    if any([r["input"] for r in old[k]] != [r["input"] for r in new[k]] for k in old):
        print("the two trees drew different inputs")
        return 1
    n = len(old["bundled"])
    print(f"traces: {n} ({args.samples} MCS + {n - args.samples} design)")
    breaches = compare(old["bundled"], new["bundled"])
    n = len(old["pv-675"])
    print(f"pv-675 traces: {n} (mean input + {n - 1} MCS)")
    breaches += compare(old["pv-675"], new["pv-675"], "pv-675 ")
    if breaches:
        print("FAIL: " + "; ".join(dict.fromkeys(breaches)))
        return 2
    return 0


def compare(old: list, new: list, tag: str = "") -> list:
    """Print the differences of one set of traces between the two trees
    (module docstring), each line prefixed by ``tag``; returns the
    tolerances they breach."""
    breaches = []
    both = [(a, b) for a, b in zip(old, new) if "error" not in a and "error" not in b]
    if both:
        lam_old = np.array([a["lambdas"] for a, _ in both])
        delta = np.abs(lam_old - np.array([b["lambdas"] for _, b in both]))
        print(tag + f"{'':10} {'|dlambda|':>32}   {'|dlambda| / lambda':>32}")
        print(tag + (f"{'':10}" + f" {'max':>10} {'p50':>10} {'p99':>10}  " * 2).rstrip())
        for j, cls in enumerate(CLASSES):
            line = f"{cls:10}"
            for d in (delta[:, j], delta[:, j] / lam_old[:, j]):
                line += (f" {d.max():10.3g} {np.percentile(d, 50):10.3g} "
                         f"{np.percentile(d, 99):10.3g}  ")
            print(tag + line.rstrip())
            if (delta[:, j] / lam_old[:, j]).max() > REL_TOL[j]:
                breaches.append(f"{cls} above {REL_TOL[j]:g}")
    n_binding = sum(a["binding"] != b["binding"] for a, b in both)
    n_capped = sum(a["capped"] != b["capped"] for a, b in both)
    print(tag + f"binding mismatches: {n_binding}, capped mismatches: {n_capped}")
    if n_binding or n_capped:
        breaches.append("binding or capped mismatches")
    for name, rows in (("old", old), ("new", new)):
        ok = [r for r in rows if "error" not in r]
        line = f"{name}: {len(rows) - len(ok)} failed"
        if ok:
            line += (f", {np.mean([r['n_solves'] for r in ok]):.2f} solves and "
                     f"{np.mean([r['n_newton'] for r in ok]):.2f} newton iterations per trace")
        print(tag + line)
        if ok and "split" in ok[0]:
            split = {key: np.mean([r["split"][key] for r in ok]) for key in SPLIT}
            march = np.mean([r["n_newton"] for r in ok]) - sum(split.values())
            print(tag + f"{name} newton iterations per trace: march {march:.2f}, voltage crossing "
                  f"{split['voltage']:.2f}, thermal crossing {split['thermal']:.2f}, "
                  f"fold {split['fold']:.2f}")
        for r in rows:
            if "error" in r:
                print(tag + f"  {r['error']}")
    if any("error" in b and "error" not in a for a, b in zip(old, new)):
        breaches.append("traces failing only in NEW_SRC")
    return breaches


if __name__ == "__main__":
    sys.exit(main())
