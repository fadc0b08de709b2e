"""Span tracer that wraps adcap's module attributes from outside the program.

The program calls across its layers through module attributes
(``pf.solve``, ``continuation.trace_adc``, ``chaos.fit_sparse``, ...), and
functions inside a module call each other through the module's globals
(``check_limits``, ``correct``).  Replacing those attributes with timing
wrappers therefore intercepts every call without editing ``src/``.
``Tracer.uninstall`` puts the original functions back.

Spans are kept in memory: name, start, end, parent span, the exception
type if the call raised, and a few counters read from arguments, results
or exceptions (Newton iterations, the traced direction).  ``layer_metrics``
folds one repetition's spans into the per-layer numbers the benchmark
reports.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# Attributes other modules call through, as (adcap module, attribute).
TRACED = (
    ("report", "run_assessment"),
    ("report", "write_outputs"),
    ("assessment", "run_mcs"),
    ("assessment", "run_pce"),
    ("assessment", "compare"),
    ("stochastic", "sample_inputs"),
    ("stochastic", "assemble_variation"),
    ("chaos", "collocation_design"),
    ("chaos", "fit_full"),
    ("chaos", "fit_sparse"),
    ("chaos", "surrogate_stats_at"),
    ("chaos", "sample_moments"),
    ("continuation", "trace_adc"),
    ("continuation", "check_limits"),
    ("continuation", "correct"),
    ("powerflow", "solve"),
    ("powerflow", "branch_flows"),
)

# Exception types counted per call site, as the program's numerical failures.
COUNTED_ERRORS = ("ConvergenceError", "SingularJacobianError")


class Span:
    __slots__ = ("name", "parent", "start", "end", "error", "iters", "key", "capped")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.error = None
        self.iters = 0
        self.key = None
        self.capped = False


def _solve_note(span, args, kwargs, result, exc):
    if exc is not None:
        span.iters = getattr(exc, "iterations", None) or 0
        return
    initial = kwargs.get("initial", args[4] if len(args) > 4 else None)
    span.iters = result.newton_total - (initial.newton_total if initial is not None else 0)


def _correct_note(span, args, kwargs, result, exc):
    span.iters = (getattr(exc, "iterations", None) or 0) if exc is not None else result[1]


def _direction_key(variation):
    return (
        tuple(sorted(variation.dp_kw.items())),
        tuple(sorted(variation.dq_kvar.items())),
        variation.load_increase_kw,
    )


def _trace_note(span, args, kwargs, result, exc):
    variation = kwargs.get("variation", args[1] if len(args) > 1 else None)
    span.key = _direction_key(variation)
    if result is not None:
        span.iters = result.n_newton
        span.capped = bool(result.capped)


_NOTES = {
    "powerflow.solve": _solve_note,
    "continuation.correct": _correct_note,
    "continuation.trace_adc": _trace_note,
}


class Tracer:
    """Records spans for every call into the attributes in ``TRACED``.

    Serial only: the parent of a span is the innermost span open when the
    call started.  Use as a context manager, or call ``install`` and
    ``uninstall`` in a ``try``/``finally``.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr in TRACED:
            module = importlib.import_module(f"adcap.{mod_name}")
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{mod_name}.{attr}", fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = _NOTES.get(name)

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                stack.pop()
                span.error = type(exc).__name__
                if note is not None:
                    note(span, args, kwargs, None, exc)
                raise
            span.end = perf_counter()
            stack.pop()
            if note is not None:
                note(span, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced


def self_time(start: float, end: float, children) -> float:
    """Length of [start, end] not covered by the union of the child intervals.

    Children are clipped to the parent's interval; overlapping children are
    counted once.
    """
    covered = 0.0
    run_start = run_end = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


def _percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class _Layer:
    __slots__ = ("calls", "failed", "total_s", "self_s", "failed_s", "iters", "durations", "errors")

    def __init__(self):
        self.calls = self.failed = self.iters = 0
        self.total_s = self.self_s = self.failed_s = 0.0
        self.durations = []
        self.errors = defaultdict(int)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one repetition's spans, keyed as in BENCHMARK.json."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    layers = defaultdict(_Layer)
    solves_in_traces = 0
    seen = set()
    repeats = capped = newton_reported = 0
    for i, sp in enumerate(spans):
        lay = layers[sp.name]
        dur = sp.end - sp.start
        lay.calls += 1
        lay.total_s += dur
        lay.self_s += self_time(sp.start, sp.end, children.get(i, ()))
        lay.iters += sp.iters
        lay.durations.append(dur)
        if sp.error is not None:
            lay.failed += 1
            lay.failed_s += dur
            lay.errors[sp.error] += 1
        if sp.name == "powerflow.solve" and sp.parent >= 0 and spans[sp.parent].name == "continuation.trace_adc":
            solves_in_traces += 1
        if sp.name == "continuation.trace_adc":
            repeats += sp.key in seen
            seen.add(sp.key)
            if sp.error is None:
                newton_reported += sp.iters
                capped += sp.capped
    solve = layers["powerflow.solve"]
    trace = layers["continuation.trace_adc"]
    correct = layers["continuation.correct"]
    n_trace = trace.calls
    out = {
        "powerflow.solve.calls": solve.calls,
        "powerflow.solve.failed": solve.failed,
        "powerflow.solve.self_s": solve.self_s,
        "powerflow.solve.failed_s": solve.failed_s,
        "powerflow.solve.newton_iters": solve.iters,
        "powerflow.solve.ms_p50": 1e3 * _percentile(solve.durations, 50),
        "powerflow.branch_flows.calls": layers["powerflow.branch_flows"].calls,
        "powerflow.branch_flows.self_s": layers["powerflow.branch_flows"].self_s,
        "continuation.check_limits.calls": layers["continuation.check_limits"].calls,
        "continuation.check_limits.self_s": layers["continuation.check_limits"].self_s,
        "continuation.correct.calls": correct.calls,
        "continuation.correct.iters": correct.iters,
        "continuation.correct.failed": correct.failed,
        "continuation.correct.self_s": correct.self_s,
        "continuation.trace_adc.calls": n_trace,
        "continuation.trace_adc.ms_p50": 1e3 * _percentile(trace.durations, 50),
        "continuation.trace_adc.ms_p95": 1e3 * _percentile(trace.durations, 95),
        "continuation.trace_adc.self_s": trace.self_s,
        "continuation.trace_adc.solves_per_trace": solves_in_traces / n_trace if n_trace else 0.0,
        "continuation.trace_adc.newton_reported_per_trace": newton_reported / n_trace if n_trace else 0.0,
        "continuation.trace_adc.capped": capped,
        "continuation.trace_adc.repeat_frac": repeats / n_trace if n_trace else 0.0,
        "stochastic.sample_inputs_s": layers["stochastic.sample_inputs"].self_s,
        "stochastic.assemble_variation_s": layers["stochastic.assemble_variation"].self_s,
        "chaos.collocation_design_s": layers["chaos.collocation_design"].self_s,
        "chaos.fit_full_s": layers["chaos.fit_full"].self_s,
        "chaos.fit_sparse_s": layers["chaos.fit_sparse"].self_s,
        "chaos.surrogate_stats_at_s": layers["chaos.surrogate_stats_at"].self_s,
        "chaos.sample_moments_s": layers["chaos.sample_moments"].self_s,
        "assessment.run_mcs.self_s": layers["assessment.run_mcs"].self_s,
        "assessment.run_mcs.wall_s": layers["assessment.run_mcs"].total_s,
        "assessment.run_pce.self_s": layers["assessment.run_pce"].self_s,
        "assessment.run_pce.wall_s": layers["assessment.run_pce"].total_s,
        "assessment.compare_s": layers["assessment.compare"].self_s,
        "report.run_assessment.self_s": layers["report.run_assessment"].self_s,
        "report.write_outputs_s": layers["report.write_outputs"].self_s,
    }
    for site, lay in (("powerflow.solve", solve), ("continuation.trace_adc", trace)):
        for err in COUNTED_ERRORS:
            out[f"{site}.{err}"] = lay.errors.get(err, 0)
    return out
