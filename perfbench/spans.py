"""Spans recorded from outside gowersff, around the public functions of each layer.

:func:`instrumented` rebinds every timed function in every ``gowersff``
namespace that holds it (``from .x import y`` copies the binding, so the
home module alone is not enough), and the timed methods on their classes,
then puts the originals back.  Spans stay in memory in a :class:`Tracer`;
a layer's self time is its spans' duration minus the time their child
spans cover.  Counts are kept at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from gowersff import cli, field, harness, norms, polys, probe, traces

SPAN_METRICS = (
    "field.prime_field_s", "field.tables_s", "field.dft_s",
    "polys.eval_all_s",
    "traces.legendre_poly_s", "traces.inverse_phase_s", "traces.kloosterman_s",
    "traces.legendre_curve_s", "traces.legendre_curve_integers_s", "traces.mixed_ask_s",
    "traces.chi_values_s",
    "norms.u1_s", "norms.u2_s", "norms.u3_s", "norms.u4_s", "norms.recursive_s",
    "norms.evaluate_s",
    "probe.scan_obstructions_s", "probe.max_phase_correlation_s", "probe.decompose_s",
    "probe.dichotomy_s", "probe.report_s",
    "harness.make_table_s", "harness.scan_primes_s", "harness.verify_s",
    "harness.baseline_s", "harness.emit_s",
    "cli.main_s",
)
#: Exact counts, with their units.
COUNT_METRICS = {
    "field.prime_field_misses": "count",
    "field.dft_calls": "count",
    "field.dft_rows": "count",
    "field.dft_points": "count",
    "norms.evaluate_calls": "count",
    "norms.work_est": "ops",
    "norms.work_cap_frac_max": "frac",
    "norms.refusals": "count",
    "probe.candidates": "count",
    "probe.components": "count",
    "harness.records": "count",
    "harness.errors": "count",
}


class Tracer:
    """Spans ``[name, start, end, parent index, run id]`` and per-run counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = 0
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.run]
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[self.run][name] += value

    def peak(self, name: str, value: float) -> None:
        counts = self.counts[self.run]
        counts[name] = max(counts[name], value)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Run id -> span metric -> summed self time in seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent, run), child in zip(self.spans, covered):
            out[run][name + "_s"] += (end - start) - child
        return out


def _wrap(tracer: Tracer, fn, name, before=None, after=None, reentrant=True):
    """``fn`` timed as span ``name`` (a string, or a function of the bound args).

    A non-reentrant wrapper records only the outermost call, so a recursive
    engine's whole time goes to the level the caller asked for.
    """
    sig = inspect.signature(fn)
    depth = 0

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nonlocal depth
        if depth and not reentrant:
            return fn(*args, **kwargs)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if before:
            before(tracer, a)
        depth += 1
        try:
            result = tracer.call(name(a) if callable(name) else name, fn, args, kwargs)
        except norms.WorkCapExceeded as exc:
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                tracer.add("norms.refusals", 1)
            raise
        finally:
            depth -= 1
        if after:
            after(tracer, a, result)
        return result

    return wrapper


# -- counters ------------------------------------------------------------------


def _dft_counts(t: Tracer, a, result) -> None:
    p = a["self"].p
    rows = math.prod(np.shape(a["v"])[:-1])
    t.add("field.dft_calls", 1)
    t.add("field.dft_rows", rows)
    t.add("field.dft_points", rows * p)


def _work_estimate(t: Tracer, a) -> None:
    """The accelerated engine's own cost estimate, p^(d-1) log2 p, against its cap."""
    p, d = len(a["values"]), a["d"]
    est = p ** (d - 1) * max(1.0, math.log2(p))
    t.add("norms.work_est", est)
    t.peak("norms.work_cap_frac_max", est / a["work_cap"])


def _candidates(t: Tracer, a, result) -> None:
    d, p = a["d"], a["field"].p
    t.add("probe.candidates", p ** (d - 1) if d >= 2 else 1)


def _scan_counts(t: Tracer, a, result) -> None:
    records, errors = result
    t.add("harness.records", len(records))
    t.add("harness.errors", len(errors))


def _verify_counts(t: Tracer, a, result) -> None:
    t.add("harness.records", len(result.records))
    t.add("harness.errors", len(result.errors))


# -- instrumentation -----------------------------------------------------------


def _function_targets():
    """(home module, attribute, span name, before, after, reentrant)."""
    return [
        (field, "prime_field", "field.prime_field", None, None, True),
        (polys, "poly_eval_all", "polys.eval_all", None, None, True),
        (traces, "legendre_poly_trace", "traces.legendre_poly", None, None, True),
        (traces, "inverse_phase_trace", "traces.inverse_phase", None, None, True),
        (traces, "kloosterman_trace", "traces.kloosterman", None, None, True),
        (traces, "legendre_curve_trace", "traces.legendre_curve", None, None, True),
        (traces, "legendre_curve_integers", "traces.legendre_curve_integers", None, None, True),
        (traces, "mixed_ask_trace", "traces.mixed_ask", None, None, True),
        (norms, "u1", "norms.u1", None, None, True),
        (norms, "gowers_accelerated", lambda a: f"norms.u{a['d']}", _work_estimate, None, False),
        (norms, "gowers_recursive", "norms.recursive", None, None, False),
        (norms, "evaluate", "norms.evaluate", lambda t, a: t.add("norms.evaluate_calls", 1), None, True),
        (probe, "scan_obstructions", "probe.scan_obstructions", None, _candidates, True),
        (probe, "max_phase_correlation", "probe.max_phase_correlation", None, _candidates, True),
        (probe, "decompose", "probe.decompose", None,
         lambda t, a, r: t.add("probe.components", len(r.components)), True),
        (probe, "dichotomy_report", "probe.dichotomy", None, None, True),
        (probe, "probe_report", "probe.report", None, None, True),
        (harness, "make_table", "harness.make_table", None, None, True),
        (harness, "scan_primes", "harness.scan_primes", None, _scan_counts, True),
        (harness, "verify", "harness.verify", None, _verify_counts, True),
        (harness, "random_baseline", "harness.baseline", None, None, True),
        (harness, "emit", "harness.emit", None, None, True),
        (cli, "main", "cli.main", None, None, True),
    ]


def _method_targets():
    """(class, attribute, span name, after) for methods timed on the class."""
    return [
        (field.PrimeField, "dft", "field.dft", _dft_counts),
        (polys.RationalFunction, "eval_all", "polys.eval_all", None),
        (traces.MultiplicativeCharacter, "values", "traces.chi_values", None),
    ]


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "gowersff" or n.startswith("gowersff."))]


@contextmanager
def instrumented(tracer: Tracer):
    """Time gowersff's layers into ``tracer`` for the duration of the block."""
    undo: list[tuple[object, str, object]] = []

    def rebind(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        modules = _package_modules()
        for home, attr, name, before, after, reentrant in _function_targets():
            original = getattr(home, attr)
            wrapper = _wrap(tracer, original, name, before, after, reentrant)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        rebind(module, key, wrapper)
        for cls, attr, name, after in _method_targets():
            rebind(cls, attr, _wrap(tracer, cls.__dict__[attr], name, after=after))
        # Lazily built per-field tables, the Bluestein plan among them.
        for attr, prop in list(vars(field.PrimeField).items()):
            if isinstance(prop, functools.cached_property):
                timed = functools.cached_property(_wrap(tracer, prop.func, "field.tables"))
                timed.__set_name__(field.PrimeField, attr)
                rebind(field.PrimeField, attr, timed)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
