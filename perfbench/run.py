"""adcap benchmark: end-to-end and per-layer cost of delivery-capability runs.

    python3 perfbench/run.py --workload mcs|surrogate|cli-parallel \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the program is imported from
``src/``.  Each run repeats one workload, generated from ``--seed``, for
about ``--seconds`` seconds (at least two repetitions) and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics with tracing
off; ``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics.  ``--smoke`` runs every workload at tiny sizes in
both modes.  See README.md in this directory for the metrics.
"""

import os

# Pinned before numpy loads, here and in every child process, so that two
# pool workers use two cores and BLAS threads do not add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "adcap" / "data"
FEEDER = DATA / "ieee13_mod.json"
SCENARIO = DATA / "scenario_ieee13.json"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

# Metric names, units and bounds are declared once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Workload:
    name: str
    method: str
    samples: int  # Monte Carlo traces
    surrogate_samples: int
    sparse_terms: object  # int or "auto"
    workers: int
    cli: bool  # run the command line in a subprocess instead of in-process


# Why each workload exists is in README.md.
WORKLOADS = {
    "mcs": Workload("mcs", "mcs", 100, 100, "auto", 1, False),
    "surrogate": Workload("surrogate", "all", 20, 100_000, "auto", 1, False),
    "cli-parallel": Workload("cli-parallel", "all", 200, 200, 31, 2, True),
}
SMOKE = {
    "mcs": replace(WORKLOADS["mcs"], samples=6, surrogate_samples=6),
    "surrogate": replace(WORKLOADS["surrogate"], samples=4, surrogate_samples=2000),
    "cli-parallel": replace(WORKLOADS["cli-parallel"], samples=4, surrogate_samples=4),
}

# Paper margins of the bundled feeder (MW); the reconstruction is approximate,
# so the gate accepts +/-15%, as the acceptance tests do.
REFERENCE_MW = {"voltage": 0.875, "thermal": 1.253, "collapse": 2.442}
BINDING_VOLTAGE = "611.c:lower"
PCE_ROWS = 91
MOMENTS = ("mean", "variance", "skewness", "kurtosis", "ci95_low", "ci95_high")
CLI_TIMEOUT_S = 90.0


@dataclass
class Rep:
    traced: bool
    wall_s: float
    report: bytes | None  # report.json, None when the run failed
    problems: list  # correctness-gate failures
    attempted: int
    failed: int
    rss_mb: float = 0.0
    layers: dict | None = None


# -- correctness gate -------------------------------------------------------------

def gate(doc: dict, wl: Workload) -> list:
    """Problems with one report.json; empty when the run is correct."""
    problems = []
    det = doc["deterministic_adc"]["adc_mw"]
    for cls, ref in REFERENCE_MW.items():
        if not abs(det[cls] - ref) / ref < 0.15:
            problems.append(f"deterministic {cls} ADC {det[cls]:.4f} MW not within 15% of {ref}")
    if not det["voltage"] < det["thermal"] < det["collapse"]:
        problems.append("deterministic ADCs not in voltage < thermal < collapse order")
    binding = doc["deterministic_adc"]["binding"]["voltage"]
    if binding != BINDING_VOLTAGE:
        problems.append(f"binding voltage element {binding}, expected {BINDING_VOLTAGE}")
    methods = doc["methods"]
    if "pce" in methods and methods["pce"]["eval_count"] != PCE_ROWS:
        problems.append(f"PCE used {methods['pce']['eval_count']} traces, expected {PCE_ROWS}")
    if "spce" in methods and isinstance(wl.sparse_terms, int):
        if methods["spce"]["eval_count"] != wl.sparse_terms:
            problems.append(
                f"SPCE used {methods['spce']['eval_count']} traces, expected {wl.sparse_terms}"
            )
    for name, res in methods.items():
        for cls, stats in res["classes"].items():
            for key in MOMENTS:
                if math.isnan(stats[key]):
                    problems.append(f"{name} {cls} {key} is NaN")
    return problems


# -- one repetition -----------------------------------------------------------------

def _load_inputs():
    from adcap.feeder import load_feeder

    return load_feeder(FEEDER.read_text()), json.loads(SCENARIO.read_text())


def run_inprocess(wl: Workload, seed: int, out_dir: Path, inputs, traced: bool) -> Rep:
    from adcap import assessment, report

    model, scenario = inputs
    config = assessment.AssessmentConfig(
        method=wl.method,
        mcs_samples=wl.samples,
        surrogate_samples=wl.surrogate_samples,
        sparse_terms=wl.sparse_terms,
        seed=seed,
        workers=wl.workers,
        out_dir=out_dir,
    )
    tracer = tracing.Tracer() if traced else None
    gc.collect()
    if tracer:
        tracer.install()
    try:
        t0 = time.perf_counter()
        result = report.run_assessment(model, scenario, config)
        report.write_outputs(result, out_dir)
        wall = time.perf_counter() - t0
    except Exception:  # a failed run is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return Rep(traced, 0.0, None, ["run raised"], 1, 1)
    finally:
        if tracer:
            tracer.uninstall()
    return _finish(wl, traced, wall, out_dir, tracing.layer_metrics(tracer.spans) if tracer else None)


def _cli_args(wl: Workload, seed: int, out_dir: Path) -> list:
    return [
        "run", "--feeder", str(FEEDER), "--scenario", str(SCENARIO),
        "--method", wl.method, "--samples", str(wl.samples), "--seed", str(seed),
        "--out", str(out_dir), "--sparse-terms", str(wl.sparse_terms),
        "--workers", str(wl.workers),
    ]


def run_cli(wl: Workload, seed: int, out_dir: Path, traced: bool) -> Rep:
    """One command-line run in a fresh process; the wall runs from spawn to exit."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = out_dir.parent / f"{out_dir.name}.layers.json"
    if traced:
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(summary)]
    else:
        argv = [sys.executable, "-m", "adcap.cli"]
    argv += _cli_args(wl, seed, out_dir)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log_path = out_dir.parent / f"{out_dir.name}.log"
    with log_path.open("wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        status, usage = _wait(proc, t0 + CLI_TIMEOUT_S)
        wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.stderr.write(log_path.read_text(errors="replace")[-2000:])
        return Rep(traced, wall, None, [f"command line exited {code}"], 1, 1)
    layers = json.loads(summary.read_text()) if traced else None
    rep = _finish(wl, traced, wall, out_dir, layers)
    # ru_maxrss of a reaped child covers it and the children it reaped
    rep.rss_mb = usage.ru_maxrss / 1024.0
    return rep


def _wait(proc, deadline):
    """Reap ``proc`` with its resource usage; kill its session past the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        if time.perf_counter() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        time.sleep(0.002)


def _finish(wl, traced, wall, out_dir, layers) -> Rep:
    """Gate a finished repetition; its operations are its traces plus the run."""
    data = (out_dir / "report.json").read_bytes()
    doc = json.loads(data)
    problems = gate(doc, wl)
    methods = doc["methods"].values()
    return Rep(
        traced, wall, data, problems,
        attempted=sum(r["eval_count"] for r in methods) + 1,
        failed=sum(r["failures"] for r in methods) + (1 if problems else 0),
        layers=layers,
    )


# -- set-up ----------------------------------------------------------------------------

def setup_probe() -> dict:
    """Set-up timings from a fresh interpreter (see setup_probe.py)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(FEEDER), str(SCENARIO)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


# -- environment -----------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


# -- one benchmark run ---------------------------------------------------------------------

def measure(wl: Workload, seed: int, seconds: float, traced: bool, probes: int, min_rounds: int):
    """Repeat the workload for about ``seconds``; returns (reps, probe results).

    A round is one untraced repetition, followed by one traced repetition
    when ``traced``.  Rounds continue while another fits in ``seconds``,
    and at least ``min_rounds`` run.
    """
    setup = [setup_probe() for _ in range(probes)]
    work = WORK / f"{wl.name}-{os.getpid()}"
    inputs = None if wl.cli else _load_inputs()
    reps = []
    try:
        t_start = time.perf_counter()
        rounds = 0
        while True:
            for kind in ((False, True) if traced else (False,)):
                out_dir = work / f"rep{len(reps)}"
                if wl.cli:
                    reps.append(run_cli(wl, seed, out_dir, kind))
                else:
                    reps.append(run_inprocess(wl, seed, out_dir, inputs, kind))
                shutil.rmtree(out_dir, ignore_errors=True)
            rounds += 1
            elapsed = time.perf_counter() - t_start
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if not wl.cli:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for rep in reps:
            rep.rss_mb = peak_mb
    reports = {rep.report for rep in reps if rep.report is not None}
    if len(reports) > 1:
        for rep in reps:
            rep.problems.append("report.json differs between repetitions of one seed")
    return reps, setup


def end_to_end(reps, setup) -> dict:
    out = {
        "setup_s": statistics.median(p["total_s"] for p in setup),
        "ok_frac": 1.0 - sum(r.failed for r in reps) / sum(r.attempted for r in reps),
    }
    plain = [r for r in reps if not r.traced and r.report is not None]
    if plain:
        out["wall_s"] = statistics.median(r.wall_s for r in plain)
        out["peak_rss_mb"] = statistics.median(r.rss_mb for r in plain)
    return out


def per_layer(reps, setup) -> dict:
    traced = [r for r in reps if r.traced and r.layers is not None]
    plain = [r for r in reps if not r.traced and r.report is not None]
    out = {}
    if traced:
        for key in traced[0].layers:
            out[key] = statistics.median(r.layers[key] for r in traced)
    out["cli.import_s"] = statistics.median(p["import_s"] for p in setup)
    out["feeder.load_feeder_ms"] = 1e3 * statistics.median(p["load_feeder_s"] for p in setup)
    out["powerflow.network_case_ms"] = 1e3 * statistics.median(p["network_case_s"] for p in setup)
    out["stochastic.build_registry_ms"] = 1e3 * statistics.median(p["build_registry_s"] for p in setup)
    if traced and plain:
        out["trace.overhead_frac"] = (
            statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in plain) - 1.0
        )
    return out


def result_line(reps, metrics: dict, units: dict) -> dict:
    missing = [name for name in units if name not in metrics]
    return {
        "correct": not missing and all(not r.problems for r in reps),
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }


def _detail(wl, seed, reps, setup) -> dict:
    return {
        "workload": wl.name,
        "seed": seed,
        "env": environment(),
        "walls_s": [round(r.wall_s, 4) for r in reps if not r.traced],
        "traced_walls_s": [round(r.wall_s, 4) for r in reps if r.traced],
        "setup_s": [round(p["total_s"], 4) for p in setup],
        "problems": sorted({p for r in reps for p in r.problems}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes, traced and untraced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "adcap" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.smoke:
        all_reps, metrics = [], {}
        units = {}
        for name, wl in SMOKE.items():
            reps, setup = measure(wl, args.seed, 0.0, True, probes=1, min_rounds=1)
            all_reps += reps
            print(json.dumps(_detail(wl, args.seed, reps, setup)))
            for key, value in {**end_to_end(reps, setup), **per_layer(reps, setup)}.items():
                metrics[f"{name}.{key}"] = value
            for key, unit in {**END_TO_END_UNITS, **PER_LAYER_UNITS}.items():
                units[f"{name}.{key}"] = unit
        line = result_line(all_reps, metrics, units)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    wl = WORKLOADS[args.workload]
    if args.trace:
        reps, setup = measure(wl, args.seed, args.seconds, True, probes=3, min_rounds=1)
        metrics, units = per_layer(reps, setup), PER_LAYER_UNITS
    else:
        reps, setup = measure(wl, args.seed, args.seconds, False, probes=5, min_rounds=2)
        metrics, units = end_to_end(reps, setup), END_TO_END_UNITS
    print(json.dumps(_detail(wl, args.seed, reps, setup)))
    print(json.dumps(result_line(reps, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
