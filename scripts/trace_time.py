"""Per-trace wall time of the continuation trace in two source trees.

    python scripts/trace_time.py OLD_SRC NEW_SRC [--traces N] [--pairs P]

OLD_SRC and NEW_SRC are directories that hold an ``adcap`` package (a
checkout's ``src``).  Each run imports one tree in a fresh subprocess
(BLAS pinned to one thread), builds the bundled feeder's case and traces
the first N (default 150) draws of the seed-0 MCS stream, as ``adc run
--seed 0`` draws them, one ``trace_adc`` call each without a memo; it does
that three times and keeps the fastest, so the first pass also warms the
case's memos.  The two trees alternate, the first of each pair swapping
sides, for P (default 8) pairs.

Printed: one line per pair (each side's milliseconds per trace and their
ratio NEW / OLD), then each side's median milliseconds per trace, the
median ratio with its range, and the number of pairs NEW was faster in.
The exit status is 0; the script measures, it does not judge.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPEATS = 3


def time_traces(traces: int) -> float:
    """Best of REPEATS passes over the first ``traces`` seed-0 MCS draws, in
    milliseconds per trace, with the ``adcap`` on ``sys.path``."""
    import adcap
    from adcap import assessment, continuation, stochastic
    from adcap.feeder import load_feeder
    from adcap.powerflow import NetworkCase

    data = Path(adcap.__file__).parent / "data"
    model = load_feeder(json.loads((data / "ieee13_mod.json").read_text()))
    registry = stochastic.build_registry(
        model, json.loads((data / "scenario_ieee13.json").read_text())
    )
    case = NetworkCase(model)
    inputs = stochastic.sample_inputs(
        registry.distributions(), traces, [0, assessment._STREAM_MCS]
    )
    variations = [stochastic.assemble_variation(u, registry) for u in inputs]
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for variation in variations:
            continuation.trace_adc(case, variation)
        best = min(best, time.perf_counter() - start)
    return 1000.0 * best / traces


def run_tree(src: str, traces: int) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    out = subprocess.run(
        [sys.executable, __file__, "--child", "--traces", str(traces)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    return float(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", nargs="?")
    ap.add_argument("new_src", nargs="?")
    ap.add_argument("--traces", type=int, default=150, help="MCS draws per pass (default 150)")
    ap.add_argument("--pairs", type=int, default=8, help="alternating pairs (default 8)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        print(repr(time_traces(args.traces)))
        return 0
    if args.new_src is None:
        ap.error("OLD_SRC and NEW_SRC are required")

    old, new = [], []
    for pair in range(args.pairs):
        sides = [(args.old_src, old), (args.new_src, new)]
        for src, times in sides if pair % 2 == 0 else sides[::-1]:
            times.append(run_tree(src, args.traces))
        print(f"pair {pair + 1}: old {old[-1]:.3f} ms, new {new[-1]:.3f} ms, "
              f"ratio {new[-1] / old[-1]:.3f}")
    ratios = [b / a for a, b in zip(old, new)]
    print(f"ms per trace (median of {args.pairs}, {args.traces} traces, best of {REPEATS}): "
          f"old {statistics.median(old):.3f}, new {statistics.median(new):.3f}")
    print(f"ratio new / old: median {statistics.median(ratios):.3f} "
          f"(range {min(ratios):.3f}-{max(ratios):.3f}); "
          f"new faster in {sum(r < 1.0 for r in ratios)} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
