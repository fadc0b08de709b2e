"""Per-trace differences of the continuation trace between two source trees.

    python scripts/trace_delta.py OLD_SRC NEW_SRC [--samples N]

OLD_SRC and NEW_SRC are directories that hold an ``adcap`` package (a
checkout's ``src``) whose inputs are rows (``stochastic.physical_inputs``).
Each tree is imported in its own subprocess, which traces, on the bundled
feeder and scenario, N Monte Carlo inputs (the first N draws of the seed-0
MCS stream, as ``adc run --seed 0`` draws them) and then every point of the
full PCE collocation design (91 on the bundled scenario), one ``trace_adc``
call each.  Both trees must have ``chaos.ORDER`` and
``chaos.collocation_design(dimension, n_rows)``: an older tree, which has
``chaos.PceConfig`` instead, cannot be compared.

Printed: per class, the max, median and 99th percentile of |delta lambda|
and of |delta lambda| / lambda (lambda from OLD_SRC) over the traces that
succeed in both trees; the traces whose binding class, binding elements or
``capped`` flag differ; the failed traces of each tree; and each tree's mean
``n_solves`` and ``n_newton`` per successful trace.

The tolerances every trace-kernel change must meet are checked, and the
exit status says whether they hold:

- 0: they hold;
- 1: the two trees drew different inputs;
- 2: a binding or ``capped`` mismatch, a trace that fails only in NEW_SRC,
  or a |delta lambda| / lambda above 1e-8 (voltage, thermal) or 1e-7
  (collapse); the last line names each breach.
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


def trace_all(samples: int) -> list:
    """Trace the inputs with the ``adcap`` on ``sys.path``; one dict per trace."""
    import adcap
    from adcap import assessment, chaos, continuation, stochastic
    from adcap.errors import ConvergenceError, SingularJacobianError
    from adcap.feeder import load_feeder
    from adcap.powerflow import NetworkCase

    data = Path(adcap.__file__).parent / "data"
    model = load_feeder(json.loads((data / "ieee13_mod.json").read_text()))
    registry = stochastic.build_registry(
        model, json.loads((data / "scenario_ieee13.json").read_text())
    )
    case = NetworkCase(model)
    dists = registry.distributions()
    n = registry.dimension
    design = chaos.collocation_design(n, n_rows=chaos.basis_size(n, chaos.ORDER))
    inputs = np.vstack([
        stochastic.sample_inputs(dists, samples, [0, assessment._STREAM_MCS]),
        stochastic.physical_inputs(design.points, dists),
    ])

    rows = []
    for u in inputs:
        row = {"input": u.tolist()}
        try:
            res = continuation.trace_adc(case, stochastic.assemble_variation(u, registry))
        except (ConvergenceError, SingularJacobianError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            row.update(
                lambdas=[res.lambdas[c] for c in CLASSES],
                binding=[res.binding_class]
                + [continuation.binding_label(res.binding_element[c]) for c in CLASSES],
                capped=res.capped,
                n_solves=res.n_solves,
                n_newton=res.n_newton,
            )
        rows.append(row)
    return rows


def run_tree(src: str, samples: int) -> list:
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
    if [r["input"] for r in old] != [r["input"] for r in new]:
        print("the two trees drew different inputs")
        return 1
    print(f"traces: {len(old)} ({args.samples} MCS + {len(old) - args.samples} design)")

    breaches = []
    both = [(a, b) for a, b in zip(old, new) if "error" not in a and "error" not in b]
    if both:
        lam_old = np.array([a["lambdas"] for a, _ in both])
        delta = np.abs(lam_old - np.array([b["lambdas"] for _, b in both]))
        print(f"{'':10} {'|dlambda|':>32}   {'|dlambda| / lambda':>32}")
        print((f"{'':10}" + f" {'max':>10} {'p50':>10} {'p99':>10}  " * 2).rstrip())
        for j, cls in enumerate(CLASSES):
            line = f"{cls:10}"
            for d in (delta[:, j], delta[:, j] / lam_old[:, j]):
                line += (f" {d.max():10.3g} {np.percentile(d, 50):10.3g} "
                         f"{np.percentile(d, 99):10.3g}  ")
            print(line.rstrip())
            if (delta[:, j] / lam_old[:, j]).max() > REL_TOL[j]:
                breaches.append(f"{cls} above {REL_TOL[j]:g}")
    n_binding = sum(a["binding"] != b["binding"] for a, b in both)
    n_capped = sum(a["capped"] != b["capped"] for a, b in both)
    print(f"binding mismatches: {n_binding}, capped mismatches: {n_capped}")
    if n_binding or n_capped:
        breaches.append("binding or capped mismatches")
    for name, rows in (("old", old), ("new", new)):
        ok = [r for r in rows if "error" not in r]
        line = f"{name}: {len(rows) - len(ok)} failed"
        if ok:
            line += (f", {np.mean([r['n_solves'] for r in ok]):.2f} solves and "
                     f"{np.mean([r['n_newton'] for r in ok]):.2f} newton iterations per trace")
        print(line)
        for r in rows:
            if "error" in r:
                print(f"  {r['error']}")
    if any("error" in b and "error" not in a for a, b in zip(old, new)):
        breaches.append("traces failing only in NEW_SRC")
    if breaches:
        print("FAIL: " + "; ".join(breaches))
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
