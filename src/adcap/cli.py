"""Command line entry point.

    adc run --feeder FILE --scenario FILE --method mcs|pce|spce|all
            --samples N --seed S --out DIR
            [--sparse-terms M|auto] [--workers W] [--dump-trace]

Exit codes: 0 success, 1 bad input (a bad or missing flag included), 2
infeasible base case, 3 numerical failure during solving or fitting, or an
internal error: any other exception of the run, a pool worker's included.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import assessment, report
from .continuation import CLASSES
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DesignRankError,
    FeederFormatError,
    IllConditionedElementError,
    InfeasibleBaseCaseError,
    SingularJacobianError,
    TopologyError,
    ZeroDirectionError,
)
from .feeder import load_feeder

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as ConfigurationError, which ``main`` reports
    in one ``error:`` line with EXIT_BAD_INPUT (argparse would print its
    usage and exit 2, the code of an infeasible base case)."""

    def error(self, message):
        raise ConfigurationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adc", description="Probabilistic available delivery capability"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an assessment")
    run.add_argument("--feeder", required=True, help="feeder JSON file")
    run.add_argument("--scenario", required=True, help="scenario JSON file")
    run.add_argument(
        "--method", default="all", choices=["mcs", "pce", "spce", "all"]
    )
    run.add_argument("--samples", type=int, default=10000,
                     help="Monte Carlo trace count and surrogate sample count")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--sparse-terms", default="auto",
                     help="sparse term count M_C, or 'auto'")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--dump-trace", action="store_true",
                     help="write pv_curve.csv from the mean-input trace")
    return parser


def _parse_sparse_terms(raw):
    if raw == "auto":
        return "auto"
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"--sparse-terms must be an integer or 'auto', got '{raw}'"
        ) from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        feeder = json.loads(Path(args.feeder).read_text())
        scenario = json.loads(Path(args.scenario).read_text())
        model = load_feeder(feeder)
        config = assessment.AssessmentConfig(
            method=args.method,
            mcs_samples=args.samples,
            surrogate_samples=args.samples,
            sparse_terms=_parse_sparse_terms(args.sparse_terms),
            seed=args.seed,
            workers=args.workers,
            out_dir=Path(args.out),
            dump_trace=args.dump_trace,
        )
    except (OSError, UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        print(f"error: cannot read inputs: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (FeederFormatError, TopologyError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create the output directory: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        rep = report.run_assessment(model, scenario, config)
    except InfeasibleBaseCaseError as exc:
        print(f"infeasible base case: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ConfigurationError, IllConditionedElementError, ZeroDirectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ConvergenceError, SingularJacobianError, DesignRankError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # a fault in the program, also one a pool worker raised
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        written = report.write_outputs(rep, config.out_dir)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    det = rep.deterministic
    print(f"feeder: {rep.feeder_name} ({rep.dimension} random inputs)")
    print(
        "deterministic ADC (MW): "
        + ", ".join(
            f"{cls}={det['adc_mw'][cls]:.4f}" for cls in CLASSES
        )
    )
    for name in sorted(rep.results):
        res = rep.results[name]
        o = res.classes["overall"]
        flag = " [UNRELIABLE]" if res.unreliable else ""
        print(
            f"{name}: overall mean {o.mean:.4f} MW, var {o.variance:.3e} "
            f"({res.eval_count} solves, {res.failures} failed){flag}"
        )
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
