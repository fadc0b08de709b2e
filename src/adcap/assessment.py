"""End-to-end probabilistic delivery-capability assessment.

Pipeline per method:
  MCS   -- draw M_S input realizations, trace each, aggregate sample stats.
  PCE   -- K-row collocation design, one trace per row, full least-squares
           fit per response class, surrogate sampling for statistics.
  SPCE  -- the first M_C rows of the run's one design (all K for auto),
           LARS selection of M_C terms, surrogate sampling as above.

All three ADC responses (voltage, thermal, collapse) come from the same
trace, are fitted independently, and an "overall" response is formed as the
per-realization minimum across classes (for surrogates: minimum of the class
surrogates evaluated on one shared standard-normal block).

Execution: every method maps one guarded per-input trace over its inputs,
with builtin ``map`` in this process (one worker) or ``pool.map`` over a
process pool of at most one worker per CPU, whose workers receive the trace
context once, when the pool starts.  A run opens at most one pool and
shares it between its methods.  ``pool.map`` keeps input order, so the
results do not depend on the worker count.  PCE and SPCE trace through the
context's run-scoped trace memo (``continuation.trace_adc``), so a design
point traced earlier in the run is not traced again; in a pool each worker
memoises into its own copy.  Monte Carlo draws never repeat, so MCS traces
bypass the memo.

Everything that lands in report.json is a pure function of (feeder, scenario,
config); wall-clock timings go to report.md only.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import chaos, continuation, stochastic
from .errors import (
    ConfigurationError,
    ConvergenceError,
    SingularJacobianError,
    ZeroDirectionError,
)

_METHODS = ("mcs", "pce", "spce")

# seed-stream tags so the coordinator, surrogate sampling and any future
# stream draw from disjoint Philox substreams of one user seed
_STREAM_MCS = 0
_STREAM_PCE_SURROGATE = 1
_STREAM_SPCE_SURROGATE = 2

KS_BLOCK_ROWS = 4096  # points per block of ks_distance


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
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")

    def methods(self) -> list:
        return list(_METHODS) if self.method == "all" else [self.method]

    def check_dimension(self, dimension: int):
        """Reject a run over ``dimension`` random inputs that has none, or
        whose sparse term count M_C is outside 1 .. the basis size; a run
        calls this before it traces anything."""
        if dimension < 1:
            raise ConfigurationError("scenario: no wind, solar or stochastic load")
        k_full = chaos.basis_size(dimension, chaos.ORDER)
        terms = self.sparse_terms
        if terms != "auto" and not (isinstance(terms, int) and 1 <= terms <= k_full):
            raise ConfigurationError(
                f"--sparse-terms must be 'auto' or between 1 and the basis "
                f"size {k_full}, got {terms}"
            )

    def design_rows(self, dimension: int) -> int:
        """Rows of the one collocation design a run builds, 0 for none: the
        basis size, or the budget M_C when SPCE alone runs at one."""
        if self.method == "spce" and self.sparse_terms != "auto":
            return self.sparse_terms
        return 0 if self.method == "mcs" else chaos.basis_size(dimension, chaos.ORDER)


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


def _pool_size(workers: int) -> int:
    """The processes a run traces over for ``--workers``: at most the CPU
    count, since a process pool starts every worker at its first task."""
    return min(workers, os.cpu_count() or 1)


def trace_pool(ctx, workers: int):
    """Context manager yielding a process pool of ``_pool_size(workers)``
    processes that hold ``ctx``, or None for a single one (trace in this
    process)."""
    size = _pool_size(workers)
    if size == 1:
        return nullcontext()
    return ProcessPoolExecutor(
        max_workers=size, initializer=_init_worker, initargs=(ctx,)
    )


def _guarded_trace(ctx, memoise, u):
    """Trace one input realization, through the context's memo when
    ``memoise`` is set.

    Returns ``(True, row, "")``, or ``(False, None, reason)`` when a
    numerical failure stops the trace or the realization's direction is
    zero (every stochastic input clamped at zero, no constant entry).
    ``ctx`` is None in a pool worker, which uses the context the pool gave
    it.
    """
    case, registry, memo = _WORKER_CTX if ctx is None else ctx
    variation = stochastic.assemble_variation(u, registry)
    try:
        res = continuation.trace_adc(case, variation, memo=memo if memoise else None)
    except (ConvergenceError, SingularJacobianError, ZeroDirectionError) as exc:
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
    ``pool`` is None, otherwise over the pool that :func:`trace_pool`
    opened for ``workers``."""
    if pool is None:
        return list(map(partial(_guarded_trace, ctx, memoise), inputs))
    chunk = max(1, len(inputs) // (_pool_size(workers) * 8))
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
    return samples, {
        "overall_class": Counter(r[3] for r in rows),
        "voltage": Counter(r[4] for r in rows if r[4] is not None),
        "thermal": Counter(r[5] for r in rows if r[5] is not None),
    }


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
    classes = {k: chaos.sample_moments(v) for k, v in samples.items()}
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


def run_pce(ctx, config: AssessmentConfig, design, sparse: bool, pool=None) -> MethodResult:
    """Collocation + chaos-expansion assessment (full or sparse) on the
    first rows of the run's ``design`` (see ``design_rows``), traced over
    ``pool`` (see :func:`trace_pool`) when given."""
    registry = ctx[1]
    t0 = time.perf_counter()
    n = registry.dimension
    k_full = len(design.indices)

    # PCE and auto SPCE take every row, a fixed SPCE budget as many rows
    target = config.sparse_terms if sparse else None
    if isinstance(target, int):
        design = replace(design, points=design.points[:target], matrix=design.matrix[:target])
    inputs = stochastic.physical_inputs(design.points, registry.distributions())

    raw = _trace_inputs(ctx, inputs, pool, config.workers, memoise=True)
    bad = [(i, err) for i, (okflag, _, err) in enumerate(raw) if not okflag]
    if bad:
        i0, err0 = bad[0]
        raise ConvergenceError(
            f"design-point trace {i0} failed ({err0}); "
            "the expansion cannot be fitted from an incomplete design"
        )
    # responses and binding evidence from the design traces themselves
    samples, freq = _aggregate_samples([payload for _, payload, _ in raw])
    models = {
        cls: chaos.fit_sparse(design, samples[cls], target)
        if sparse
        else chaos.fit_full(design, samples[cls])
        for cls in ("voltage", "thermal", "collapse")
    }

    # the standard normals go block by block from the draw to the surrogates
    stream = _STREAM_SPCE_SURROGATE if sparse else _STREAM_PCE_SURROGATE
    count = config.surrogate_samples
    blocks = stochastic.standard_normals(
        count, n, [config.seed, stream], chaos.BASIS_BLOCK_ROWS
    )
    values = chaos.surrogate_values(models.values(), blocks, count)
    classes = {
        cls: chaos.surrogate_stats_at(model, y)
        for (cls, model), y in zip(models.items(), values)
    }
    overall = np.minimum(classes["voltage"].samples, classes["thermal"].samples)
    np.minimum(overall, classes["collapse"].samples, out=overall)
    classes["overall"] = chaos.sample_moments(overall)

    method = "spce" if sparse else "pce"
    diag = {
        "design_rows": design.rows,
        "basis_size": k_full,
        "terms": {cls: int(m.active.sum()) for cls, m in models.items()},
        "models": {cls: m.to_dict() for cls, m in models.items()},
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
    empirical CDFs of ``a`` and ``b``, evaluated at every sample of both,
    KS_BLOCK_ROWS samples at a time (the largest of the block maxima is the
    maximum)."""
    a, b = np.sort(a), np.sort(b)
    gap = 0.0
    for x in (a, b):
        for r0 in range(0, len(x), KS_BLOCK_ROWS):
            at = x[r0:r0 + KS_BLOCK_ROWS]
            d = (
                np.searchsorted(a, at, side="right") / len(a)
                - np.searchsorted(b, at, side="right") / len(b)
            )
            gap = max(gap, float(np.max(np.abs(d))))
    return gap


def compare(results: dict) -> dict:
    """Per-class moment deltas, KS distance and evaluation-count ratio of
    every method against the baseline (MCS when present), over the
    baseline's classes."""
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
            b = base.classes[cls]
            o = res.classes[cls]
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
