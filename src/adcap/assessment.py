"""End-to-end probabilistic delivery-capability assessment.

Pipeline per method:
  MCS   -- draw M_S input realizations, trace each, aggregate sample stats.
  PCE   -- K-row collocation design, one trace per row, full least-squares
           fit per response class, surrogate sampling for statistics.
  SPCE  -- M_C-row design (square on the selected columns), LARS selection,
           surrogate sampling as above.

All three ADC responses (voltage, thermal, collapse) come from the same
trace, are fitted independently, and an "overall" response is formed as the
per-realization minimum across classes (for surrogates: minimum of the class
surrogates evaluated on one shared standard-normal block).

Execution: every method maps one guarded per-input trace over its inputs,
with builtin ``map`` in this process (one worker) or ``pool.map`` over a
process pool whose workers receive the trace context once, when the pool
starts.  A run opens at most one pool and shares it between its methods.
``pool.map`` keeps input order, so the results do not depend on the worker
count.  PCE and SPCE trace through the context's run-scoped trace memo
(``continuation.trace_adc``), so a design point traced earlier in the run
is not traced again; in a pool each worker memoises into its own copy.
Monte Carlo draws never repeat, so MCS traces bypass the memo.

Everything that lands in report.json is a pure function of (feeder, scenario,
config); wall-clock timings go to report.md only.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import chaos, continuation, stochastic
from .errors import ConfigurationError, ConvergenceError, SingularJacobianError

_METHODS = ("mcs", "pce", "spce")

# seed-stream tags so the coordinator, surrogate sampling and any future
# stream draw from disjoint Philox substreams of one user seed
_STREAM_MCS = 0
_STREAM_PCE_SURROGATE = 1
_STREAM_SPCE_SURROGATE = 2

PCE_ORDER = 2  # total degree of every PCE and SPCE basis


@dataclass
class AssessmentConfig:
    method: str = "all"  # mcs | pce | spce | all
    mcs_samples: int = 10000
    surrogate_samples: int = 10000
    sparse_terms: int | str = "auto"
    seed: int = 0
    workers: int = 1
    out_dir: Path | None = None
    dump_trace: bool = False

    def __post_init__(self):
        if self.method not in _METHODS + ("all",):
            raise ConfigurationError(f"unknown method '{self.method}'")
        if self.mcs_samples < 1 or self.surrogate_samples < 1:
            raise ConfigurationError("sample counts must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")

    def methods(self) -> list:
        return list(_METHODS) if self.method == "all" else [self.method]

    def check_sparse_terms(self, dimension: int):
        """Reject a sparse term count M_C outside 1 .. the basis size for
        ``dimension`` inputs; a run calls this before it traces anything."""
        k_full = chaos.basis_size(dimension, PCE_ORDER)
        terms = self.sparse_terms
        if terms != "auto" and not (isinstance(terms, int) and 1 <= terms <= k_full):
            raise ConfigurationError(
                f"--sparse-terms must be 'auto' or between 1 and the basis "
                f"size {k_full}, got {terms}"
            )


@dataclass
class MethodResult:
    method: str
    eval_count: int  # deterministic continuation traces performed
    classes: dict  # class name -> chaos.ClassStats
    binding_freq: dict  # class name -> {element: count}
    overall_rule: str
    failures: int = 0
    failure_reasons: list = field(default_factory=list)  # "<exception type>: <message>"
    unreliable: bool = False
    diagnostics: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0  # report.md only, never serialized to json

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "eval_count": self.eval_count,
            "classes": {k: v.to_dict() for k, v in sorted(self.classes.items())},
            "binding_frequency": {
                k: dict(sorted(v.items())) for k, v in sorted(self.binding_freq.items())
            },
            "overall_rule": self.overall_rule,
            "failures": self.failures,
            "failure_counts": dict(sorted(Counter(
                reason.split(":", 1)[0] for reason in self.failure_reasons
            ).items())),
            "failure_reasons": self.failure_reasons[:20],
            "unreliable": self.unreliable,
            "diagnostics": self.diagnostics,
        }


# -- trace execution -------------------------------------------------------------
# A trace context ``ctx`` is (case, registry, memo): ``memo`` is the run's
# trace memo (a dict, see ``continuation.trace_adc``) or None.

_WORKER_CTX = None  # the trace context of a pool worker process


def _init_worker(ctx):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def trace_pool(ctx, workers: int):
    """Context manager yielding a process pool whose workers hold ``ctx``,
    or None for a single worker (trace in this process)."""
    if workers == 1:
        return nullcontext()
    return ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(ctx,)
    )


def _guarded_trace(ctx, memoise, u):
    """Trace one input realization, through the context's memo when
    ``memoise`` is set.

    Returns ``(True, row, "")``, or ``(False, None, reason)`` when a
    numerical failure stops the trace.  ``ctx`` is None in a pool worker,
    which uses the context the pool gave it.
    """
    case, registry, memo = _WORKER_CTX if ctx is None else ctx
    variation = stochastic.assemble_variation(u, registry)
    try:
        res = continuation.trace_adc(case, variation, memo=memo if memoise else None)
    except (ConvergenceError, SingularJacobianError) as exc:
        return False, None, f"{type(exc).__name__}: {exc}"
    row = (
        res.adc_mw["voltage"],
        res.adc_mw["thermal"],
        res.adc_mw["collapse"],
        res.binding_class,
        continuation.binding_label(res.binding_element["voltage"]),
        continuation.binding_label(res.binding_element["thermal"]),
        res.capped,
    )
    return True, row, ""


def _trace_inputs(ctx, inputs, pool, workers, memoise):
    """Guarded traces of ``inputs``, in input order: in this process when
    ``pool`` is None, otherwise over its ``workers`` processes."""
    if pool is None:
        return list(map(partial(_guarded_trace, ctx, memoise), inputs))
    chunk = max(1, len(inputs) // (workers * 8))
    return list(pool.map(partial(_guarded_trace, None, memoise), inputs, chunksize=chunk))


# -- aggregation helpers ---------------------------------------------------------

def _aggregate_samples(rows):
    """Per-class MW sample arrays and binding tallies of successful trace rows."""
    arr = np.array([[r[0], r[1], r[2]] for r in rows], dtype=float)
    samples = {
        "voltage": arr[:, 0],
        "thermal": arr[:, 1],
        "collapse": arr[:, 2],
        "overall": arr.min(axis=1),
    }
    freq_overall: dict = {}
    freq_v: dict = {}
    freq_t: dict = {}
    for r in rows:
        freq_overall[r[3]] = freq_overall.get(r[3], 0) + 1
        if r[4] is not None:
            freq_v[r[4]] = freq_v.get(r[4], 0) + 1
        if r[5] is not None:
            freq_t[r[5]] = freq_t.get(r[5], 0) + 1
    return samples, {"overall_class": freq_overall, "voltage": freq_v, "thermal": freq_t}


def run_mcs(ctx, config: AssessmentConfig, pool=None) -> MethodResult:
    """Monte Carlo assessment: one continuation trace per input realization,
    over ``pool`` (see :func:`trace_pool`) when given."""
    registry = ctx[1]
    t0 = time.perf_counter()
    inputs = stochastic.sample_inputs(
        registry.distributions(),
        config.mcs_samples,
        [config.seed, _STREAM_MCS],
    )
    raw = _trace_inputs(ctx, inputs, pool, config.workers, memoise=False)

    ok = [payload for okflag, payload, _ in raw if okflag]
    reasons = [err for okflag, _, err in raw if not okflag]
    if not ok:
        raise ConvergenceError("every Monte Carlo trace failed")
    samples, freq = _aggregate_samples(ok)
    classes = {k: chaos.ClassStats(chaos.sample_moments(v)) for k, v in samples.items()}
    failures = len(reasons)
    return MethodResult(
        method="mcs",
        eval_count=len(inputs),
        classes=classes,
        binding_freq=freq,
        overall_rule="per-realization minimum across classes",
        failures=failures,
        failure_reasons=reasons,
        unreliable=failures > 0.01 * len(inputs),
        diagnostics={"capped_traces": int(sum(1 for r in ok if r[6]))},
        wall_clock_s=time.perf_counter() - t0,
    )


def run_pce(ctx, config: AssessmentConfig, sparse: bool, pool=None) -> MethodResult:
    """Collocation + chaos-expansion assessment (full or sparse), tracing the
    design over ``pool`` (see :func:`trace_pool`) when given."""
    registry = ctx[1]
    t0 = time.perf_counter()
    n = registry.dimension
    pcfg = chaos.PceConfig(n, PCE_ORDER)
    k_full = chaos.basis_size(n, PCE_ORDER)

    if sparse:
        if isinstance(config.sparse_terms, int):
            n_rows = config.sparse_terms
            target = config.sparse_terms
        else:
            n_rows = k_full  # auto rule needs the full-rank design
            target = "auto"
    else:
        n_rows = k_full
        target = None

    design = chaos.collocation_design(pcfg, n_rows=n_rows)
    inputs = stochastic.physical_inputs(design.points, registry.distributions())

    raw = _trace_inputs(ctx, inputs, pool, config.workers, memoise=True)
    bad = [(i, err) for i, (okflag, _, err) in enumerate(raw) if not okflag]
    if bad:
        i0, err0 = bad[0]
        raise ConvergenceError(
            f"design-point trace {i0} failed ({err0}); "
            "the expansion cannot be fitted from an incomplete design"
        )
    rows = [payload for _, payload, _ in raw]

    responses = {
        "voltage": np.array([r[0] for r in rows]),
        "thermal": np.array([r[1] for r in rows]),
        "collapse": np.array([r[2] for r in rows]),
    }
    models = {}
    for cls, y in responses.items():
        if sparse:
            models[cls] = chaos.fit_sparse(design, y, target)
        else:
            models[cls] = chaos.fit_full(design, y)

    stream = _STREAM_SPCE_SURROGATE if sparse else _STREAM_PCE_SURROGATE
    xi = stochastic.standard_normals(config.surrogate_samples, n, [config.seed, stream])
    bases = chaos.active_bases(models.values(), xi)
    classes = {
        cls: chaos.surrogate_stats_at(model, basis, clip_at_zero=True)
        for (cls, model), basis in zip(models.items(), bases)
    }
    overall = np.minimum(
        np.minimum(classes["voltage"].stats.samples, classes["thermal"].stats.samples),
        classes["collapse"].stats.samples,
    )
    classes["overall"] = chaos.ClassStats(chaos.sample_moments(overall))

    # binding evidence from the design traces themselves
    _, freq = _aggregate_samples(rows)
    method = "spce" if sparse else "pce"
    diag = {
        "design_rows": design.rows,
        "basis_size": k_full,
        "terms": {cls: int(m.active.sum()) for cls, m in models.items()},
        "models": {cls: json.loads(m.to_json()) for cls, m in models.items()},
    }
    return MethodResult(
        method=method,
        eval_count=design.rows,
        classes=classes,
        binding_freq=freq,
        overall_rule="minimum of class surrogates on a shared sample block",
        diagnostics=diag,
        wall_clock_s=time.perf_counter() - t0,
    )


def ks_distance(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    empirical CDFs of ``a`` and ``b``, evaluated at every sample of both."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gap = (
        np.searchsorted(a, both, side="right") / len(a)
        - np.searchsorted(b, both, side="right") / len(b)
    )
    return float(np.max(np.abs(gap)))


def compare(results: dict) -> dict:
    """Per-class moment deltas, KS distance and evaluation-count ratio of
    every method against the baseline (MCS when present)."""
    if not results:
        return {}
    baseline_name = "mcs" if "mcs" in results else sorted(results)[0]
    base = results[baseline_name]
    out = {"baseline": baseline_name, "pairs": {}}
    for name, res in sorted(results.items()):
        if name == baseline_name:
            continue
        rows = {}
        for cls in sorted(base.classes):
            if cls not in res.classes:
                continue
            b = base.classes[cls].stats
            o = res.classes[cls].stats
            ks = ks_distance(b.samples, o.samples)
            rows[cls] = {
                "mean_rel_delta": abs(o.mean - b.mean) / abs(b.mean) if b.mean else 0.0,
                "var_rel_delta": abs(o.variance - b.variance) / b.variance
                if b.variance
                else 0.0,
                "skew_delta": abs(o.skewness - b.skewness),
                "kurt_delta": abs(o.kurtosis - b.kurtosis),
                "ks_distance": ks,
            }
        out["pairs"][name] = {
            "classes": rows,
            "eval_ratio": res.eval_count / base.eval_count if base.eval_count else 0.0,
        }
    return out
