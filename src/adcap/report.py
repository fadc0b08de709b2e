"""Report assembly and output writers.

``report.json`` is a pure function of (feeder, scenario, config): no
timestamps, no wall-clock, key order sorted — two runs with the same seed
and a single worker produce byte-identical files.  Timings and narrative go
to ``report.md``; CDF grids go to per-class/per-method CSV files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import assessment, chaos, continuation, powerflow, stochastic

_CLASS_ORDER = ("voltage", "thermal", "collapse", "overall")
CDF_BLOCK_ROWS = 4096  # rows per block of a CDF file


@dataclass
class AdcReport:
    feeder_name: str
    config: assessment.AssessmentConfig
    dimension: int
    base_summary: dict
    deterministic: dict  # mean-input trace summary
    results: dict  # method -> MethodResult
    comparison: dict
    curve: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "feeder": self.feeder_name,
            "config": {
                "method": self.config.method,
                "mcs_samples": self.config.mcs_samples,
                "surrogate_samples": self.config.surrogate_samples,
                "sparse_terms": self.config.sparse_terms,
                "order": chaos.ORDER,
                "seed": self.config.seed,
                "workers": self.config.workers,
            },
            "input_dimension": self.dimension,
            "base_case": self.base_summary,
            "deterministic_adc": self.deterministic,
            "methods": {name: r.to_dict() for name, r in sorted(self.results.items())},
            "comparison": self.comparison,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    def to_markdown(self) -> str:
        lines = [f"# Delivery capability report: {self.feeder_name}", ""]
        lines.append(
            f"Random inputs: {self.dimension} | seed {self.config.seed} "
            f"| workers {self.config.workers}"
        )
        lines.append("")
        lines.append("## Base case")
        b = self.base_summary
        lines.append(
            f"- voltage range: {b['v_min_pu']:.4f} .. {b['v_max_pu']:.4f} pu "
            f"(limits {b['limit_low']:.2f}/{b['limit_high']:.2f})"
        )
        lines.append(f"- worst branch loading: {b['max_loading']:.3f}")
        lines.append("")
        lines.append("## Deterministic margins at mean inputs (MW)")
        d = self.deterministic
        lines.append("| class | lambda | ADC (MW) | binding |")
        lines.append("|---|---|---|---|")
        for cls in ("voltage", "thermal", "collapse"):
            lines.append(
                f"| {cls} | {d['lambdas'][cls]:.4f} | {d['adc_mw'][cls]:.4f} "
                f"| {d['binding'].get(cls) or '-'} |"
            )
        lines.append("")
        for name in sorted(self.results):
            r = self.results[name]
            lines.append(f"## {name.upper()} ({r.eval_count} deterministic solves)")
            if r.failures:
                flag = " — FLAGGED UNRELIABLE" if r.unreliable else ""
                lines.append(f"- failed traces: {r.failures}{flag}")
            lines.append(f"- overall rule: {r.overall_rule}")
            lines.append(f"- wall clock: {r.wall_clock_s:.1f} s")
            lines.append("")
            lines.append("| class | mean | variance | skewness | kurtosis | 95% CI |")
            lines.append("|---|---|---|---|---|---|")
            for cls in _CLASS_ORDER:
                s = r.classes[cls]
                lines.append(
                    f"| {cls} | {s.mean:.6f} | {s.variance:.6e} | {s.skewness:.4f} "
                    f"| {s.kurtosis:.4f} | [{s.ci95[0]:.4f}, {s.ci95[1]:.4f}] |"
                )
            lines.append("")
        if self.comparison.get("pairs"):
            base = self.comparison["baseline"]
            lines.append(f"## Method comparison (baseline: {base.upper()})")
            lines.append(
                "| method | class | d(mean)/mean | d(var)/var | d(skew) | d(kurt) | KS | eval ratio |"
            )
            lines.append("|---|---|---|---|---|---|---|---|")
            for name, pair in sorted(self.comparison["pairs"].items()):
                for cls in _CLASS_ORDER:
                    row = pair["classes"][cls]
                    lines.append(
                        f"| {name} | {cls} | {row['mean_rel_delta']:.2e} "
                        f"| {row['var_rel_delta']:.2e} | {row['skew_delta']:.3f} "
                        f"| {row['kurt_delta']:.3f} | {row['ks_distance']:.4f} "
                        f"| {pair['eval_ratio']:.3f} |"
                    )
            lines.append("")
        return "\n".join(lines) + "\n"


def _probability_column(n: int) -> np.ndarray:
    """The cumulative probabilities i/n, i = 1 .. n, each formatted ``%.6g``
    into a fixed-width bytes array (at most 11 characters a value), built
    CDF_BLOCK_ROWS values at a time."""
    column = np.empty(n, dtype="S11")
    for r0 in range(0, n, CDF_BLOCK_ROWS):
        q = np.arange(r0 + 1, min(r0 + CDF_BLOCK_ROWS, n) + 1) / n
        column[r0:r0 + len(q)] = [b"%.6g" % v for v in q.tolist()]
    return column


def write_outputs(report: AdcReport, out_dir) -> list:
    """Write report.json / report.md / cdf_<class>_<method>.csv (+ pv_curve.csv
    when the report carries a curve, with ``--dump-trace``); returns the
    written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    p = out / "report.json"
    p.write_text(report.to_json())
    written.append(p)

    p = out / "report.md"
    p.write_text(report.to_markdown())
    written.append(p)

    probabilities = {}  # sample count -> its formatted probability column
    for name, res in sorted(report.results.items()):
        for cls in _CLASS_ORDER:
            # sorted samples against their cumulative probability i/M
            s = np.sort(res.classes[cls].samples)
            n = len(s)
            if n not in probabilities:
                probabilities[n] = _probability_column(n)
            p = out / f"cdf_{cls}_{name}.csv"
            with p.open("wb") as fh:
                fh.write(b"adc_mw,cumulative_probability\n")
                for r0 in range(0, n, CDF_BLOCK_ROWS):
                    rows = s[r0:r0 + CDF_BLOCK_ROWS].tolist()
                    cells = [None] * (2 * len(rows))
                    cells[::2] = rows
                    cells[1::2] = probabilities[n][r0:r0 + CDF_BLOCK_ROWS].tolist()
                    fh.write(b"%.10g,%s\n" * len(rows) % tuple(cells))
            written.append(p)

    if report.comparison.get("pairs"):
        p = out / "comparison.csv"
        with p.open("w", newline="") as fh:
            fh.write(
                "method,class,mean_rel_delta,var_rel_delta,skew_delta,kurt_delta,"
                "ks_distance,eval_ratio\n"
            )
            for name, pair in sorted(report.comparison["pairs"].items()):
                for cls in _CLASS_ORDER:
                    row = pair["classes"][cls]
                    fh.write(
                        f"{name},{cls},{row['mean_rel_delta']:.10g},"
                        f"{row['var_rel_delta']:.10g},{row['skew_delta']:.10g},"
                        f"{row['kurt_delta']:.10g},{row['ks_distance']:.10g},"
                        f"{pair['eval_ratio']:.10g}\n"
                    )
        written.append(p)

    if report.curve:
        p = out / "pv_curve.csv"
        with p.open("w", newline="") as fh:
            fh.write("lambda,min_vm_pu,max_branch_loading\n")
            for pt in report.curve:
                fh.write(f"{pt.lam:.10g},{pt.min_vm:.10g},{pt.max_loading:.10g}\n")
        written.append(p)
    return written


def run_assessment(model, scenario: dict, config: assessment.AssessmentConfig) -> AdcReport:
    """Assemble the full report for a parsed feeder model and scenario dict."""
    case = powerflow.NetworkCase(model)
    registry = stochastic.build_registry(model, scenario)
    config.check_dimension(registry.dimension)
    # the run's trace memo: the design centre of PCE and SPCE is the mean
    # input traced here, and every SPCE design point is a PCE design point
    memo = {}
    ctx = (case, registry, memo)

    # base-case feasibility gate (shared by every method) and mean-input trace
    base_state, _ = continuation.solve_base_case(case)
    vm = base_state.vm[case.monitored]
    base_summary = {
        "v_min_pu": float(np.min(vm)),
        "v_max_pu": float(np.max(vm)),
        "limit_low": model.limits.v_min_pu,
        "limit_high": model.limits.v_max_pu,
        "max_loading": float(np.max(powerflow.branch_flows(case, base_state).loading)),
        "total_load_kw": model.total_load()[0],
        "total_load_kvar": model.total_load()[1],
    }

    mean_var = stochastic.assemble_variation(registry.mean_inputs(), registry)
    det = continuation.trace_adc(case, mean_var, memo=memo)
    deterministic = {
        "lambdas": {k: det.lambdas[k] for k in ("voltage", "thermal", "collapse")},
        "adc_mw": {k: det.adc_mw[k] for k in ("voltage", "thermal", "collapse")},
        "overall_mw": det.overall_mw,
        "binding_class": det.binding_class,
        "binding": {
            k: continuation.binding_label(det.binding_element[k])
            for k in ("voltage", "thermal")
        },
        "capped": det.capped,
    }

    rows = config.design_rows(registry.dimension)  # the one design PCE and SPCE share
    design = chaos.collocation_design(registry.dimension, rows) if rows else None
    results = {}
    with assessment.trace_pool(ctx, config.workers) as pool:
        for method in config.methods():
            if method == "mcs":
                results["mcs"] = assessment.run_mcs(ctx, config, pool)
            else:
                results[method] = assessment.run_pce(
                    ctx, config, design, method == "spce", pool
                )

    return AdcReport(
        feeder_name=model.name,
        config=config,
        dimension=registry.dimension,
        base_summary=base_summary,
        deterministic=deterministic,
        results=results,
        comparison=assessment.compare(results),
        curve=det.curve if config.dump_trace else [],
    )
