"""Polynomial-phase obstruction scanning and the structure dichotomy.

A function with large U_d norm must correlate with some phase
e(P(x)/p), deg P <= d - 1.  This module finds such phases analytically:
``scan_obstructions`` enumerates all candidate P with zero constant
term (constant terms only rotate the coefficient and are normalized
away), at every d, reading one row over the linear coefficient off a
prime-length DFT for each choice of the higher ones, and ``decompose``
splits phi = t1 + t2 with t2 the detected phase part.  The scan's one
cost policy is the default work cap on p^(d-2) * p * (d + log2 p).

The candidates are walked once: the walk keeps each row's peak
magnitude and where it occurs, and every entry reaching the scan's
threshold.  ``max_phase_correlation`` reduces the peaks, and
``scan_obstructions`` reads the hits.  The rows take the orbit kernel's
route, :meth:`PrimeField._transform` (Rader's algorithm where p - 1 is
13-smooth), and a real table at d >= 3 walks about half of its tops (see
``_correlation_rows``).  The walk's chunks of 2^17 values run through
the orbit kernel's runner, :func:`gowersff.norms._in_chunks`: with two
usable cores a helper thread takes every other chunk, each worker twists
and transforms its chunks in one reused buffer, and peaks and hits are
kept in chunk order, so they do not depend on the workers.  Inside one
``probe_report`` the scan and the dichotomy share the walk (a
``contextvars`` scope, reset on exit).  The table's U_d is computed only
when read: the "phase" branch does not need it, and the residual's U_d
is the table's own when nothing was removed.
Values must be finite; every entry point refuses NaN and infinities.

``dichotomy_report`` classifies a family table as "phase" (some
correlation >= 0.99, the analytic proxy for containing that phase
exactly), "uniform" (U_d * p under an empirical ceiling), or
"inconclusive".  The phase check takes precedence: an exact phase also
has modest U_d * p at desk-scale p, and it belongs to the first branch.
"""

from __future__ import annotations

import dataclasses
import functools
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .field import PrimeField
from . import polys
from .harness import DEFAULT_CEILING, _check_positive
from .norms import (
    _CHUNK_VALUES,
    DEFAULT_WORK_CAP,
    _finite_values,
    _in_chunks,
    _refuse_over_cap,
    gowers_accelerated,
)
from .traces import TraceTable

__all__ = [
    "PhaseComponent",
    "Decomposition",
    "DichotomyReport",
    "phase_correlation",
    "scan_obstructions",
    "max_phase_correlation",
    "decompose",
    "dichotomy_report",
    "probe_report",
]

#: Correlation magnitude treated as "the function is this phase".
PHASE_PROXY = 0.99


@dataclass(frozen=True)
class PhaseComponent:
    """One detected phase e(P(x)/p) with its correlation coefficient.

    ``coeffs`` holds P ascending (constant term first, always 0).
    """

    coeffs: tuple[int, ...]
    beta: complex

    @property
    def magnitude(self) -> float:
        return abs(self.beta)


@dataclass(frozen=True)
class Decomposition:
    """phi = t1 + t2 with t2 the sum of the detected phase components."""

    t1: np.ndarray
    t2: np.ndarray
    components: tuple[PhaseComponent, ...]
    d: int
    threshold: float


def _phase_values(coeffs, field: PrimeField) -> np.ndarray:
    return field.char_table[polys.poly_eval_all(tuple(coeffs), field.p)]


def phase_correlation(values: np.ndarray, coeffs, field: PrimeField) -> complex:
    """(1/p) sum_x phi(x) e(-P(x)/p) for P given by ascending coeffs."""
    values = _finite_values(values, field.p)
    return complex((values * np.conj(_phase_values(coeffs, field))).mean())


def _tops(flat, d: int, p: int) -> np.ndarray:
    """The tops (a_2, ..., a_{d-1}) at the given flat indices: their base-p digits."""
    place = p ** np.arange(d - 2, dtype=np.int64)
    return np.asarray(flat, dtype=np.int64)[..., None] // place % p


def _mirror(flat, d: int, p: int) -> np.ndarray:
    """The flat indices of the tops -(a_2, ..., a_{d-1})."""
    return (-_tops(flat, d, p) % p) @ p ** np.arange(d - 2, dtype=np.int64)


def _correlation_rows(values: np.ndarray, d: int, field: PrimeField):
    """The walk over the tops (a_2, ..., a_{d-1}) in chunks: (n_chunks, chunk, rows).

    ``rows(i)`` gives chunk i as (flat, hat): at most ``chunk`` flat tops,
    ascending, and their rows laid out by ``field._plan``.  hat[j, c] is
    the correlation with P = (0, b, *top) for b = ``_plan.freqs[c]``: the
    transform of phi(x) e(-(a_2 x^2 + ... + a_{d-1} x^(d-1))/p), twisted in
    ``_plan.order`` and run through :meth:`PrimeField._transform`.  At
    d = 2 the one top is (); at d = 1 the one row is the mean, the
    correlation with P = 0.  For real phi at d >= 3, row(-top)(-b) is
    conj row(top)(b), so only the tops that come before their mirror -top
    in flat order are walked: the zero top, and those whose leading
    nonzero digit is at most (p - 1)/2.  ``rows(i, phases, twisted)``
    works in a worker's (chunk, p) int64 and complex buffers: the twisted
    table, then its transform, go into the second.  Refuses, before any
    allocation, when the estimated cost p^(d-2) * p * (d + log2 p) of the
    walk over all tops (rows times twist and DFT) exceeds the default work
    cap.
    """
    p = field.p
    n_tops = p ** max(d - 2, 0)
    est = n_tops * p * (d + max(1.0, np.log2(p)))
    _refuse_over_cap(f"probe at d = {d}, p = {p}", "p^(d-2) * p * (d + log2 p)",
                     est, DEFAULT_WORK_CAP)
    walked = np.arange(n_tops)
    if d >= 3 and not values.imag.any():  # leading nonzero digit a_k at most (p - 1)/2
        walked = np.concatenate([[0], *(np.arange(p**k, (p + 1) // 2 * p**k)
                                        for k in range(d - 2))])
    x = field._plan.order  # column j holds x = order[j]
    laid_out = values[x]
    powers = [x * x % p]  # x^2, ..., x^(d-1)
    while len(powers) < d - 2:
        powers.append(powers[-1] * x % p)
    chunk = max(1, _CHUNK_VALUES // p)

    def rows(i, phase_buf=None, twisted_buf=None):
        flat = walked[i * chunk : (i + 1) * chunk]
        if d == 1:
            return flat, values.mean(keepdims=True)[None]
        if d == 2:  # one chunk, so the row can be transformed in place
            return flat, field._transform(laid_out[None, :])
        tops = _tops(flat, d, p)
        if phase_buf is not None:
            phase_buf, twisted_buf = phase_buf[: len(tops)], twisted_buf[: len(tops)]
        # a_2 x^2 + ... + a_{d-1} x^(d-1) mod p; phi(x) e(-that/p), then
        # its transform, all in one array.
        phases = np.multiply(tops[:, :1], powers[0], out=phase_buf)
        for j in range(1, d - 2):
            phases += tops[:, j : j + 1] * powers[j]
        phases %= p
        twisted = np.take(field.char_table, phases, out=twisted_buf, mode="clip")
        np.conjugate(twisted, out=twisted)
        np.multiply(laid_out, twisted, out=twisted)
        return flat, field._transform(twisted)

    return -(-len(walked) // chunk), chunk, rows


#: Within one probe_report: () or its last (values, d, field, threshold, walk),
#: which its scan and its dichotomy share.  None outside a probe.
_shared_walk: ContextVar[tuple | None] = ContextVar("_shared_walk", default=None)


def _walk(values: np.ndarray, d: int, field: PrimeField, threshold: float = np.inf):
    """(tops, peak, arg, flat, b, beta): one walk of the p^(d-1) candidates (one at d = 1).

    tops are the flat tops walked, ascending; peak and arg run over them:
    max_b |row[b]| and the smallest b attaining it.  (flat, b, beta) are
    the entries with |beta| >= threshold, sorted by flat top, then by b,
    searched for only in the tops whose peak reaches it.  A real table's
    walk leaves out the mirrors of its tops, which take their hits from
    them (-top, -b, conj beta).  A mirror's peak is its twin's, and the
    twin comes first in flat order, so the first top with the largest
    peak is always a walked one.  The chunks run through
    :func:`gowersff.norms._in_chunks`.  Inside a probe_report a walk of
    the same values object, d and field at threshold t serves every call
    whose threshold is at least t.
    """
    shared = _shared_walk.get()
    if shared:
        seen, seen_d, seen_field, seen_t, walk = shared
        if seen is values and seen_d == d and seen_field is field and seen_t <= threshold:
            return walk
    p = field.p
    n_chunks, chunk, rows = _correlation_rows(values, d, field)
    freqs = field._plan.freqs

    def buffers():
        shape = (chunk, p)
        return np.empty(shape, np.int64), np.empty(shape, np.complex128), np.empty(shape)

    def walk_chunk(i, phase_buf=None, twisted_buf=None, mag_buf=None):
        flat, hat = rows(i, phase_buf, twisted_buf)
        mag = np.abs(hat, out=None if mag_buf is None else mag_buf[: len(hat)])
        at = np.arange(len(mag)), mag.argmax(axis=1)
        peak, arg = mag[at], freqs[at[1]]
        # A peak in more than one column (the runner-up equals it) goes to
        # the smallest b attaining it.
        mag[at] = -1.0
        tied = np.flatnonzero(mag.max(axis=1) == peak)
        mag[at] = peak
        arg[tied] = np.where(mag[tied] == peak[tied, None], freqs, p).min(axis=1)
        tops = np.flatnonzero(peak >= threshold)
        j, c = np.nonzero(mag[tops] >= threshold)
        return flat, peak, arg, flat[tops[j]], freqs[c], hat[tops[j], c]

    tops, peak, arg, flat, b, beta = map(
        np.concatenate, zip(*_in_chunks(n_chunks, walk_chunk, buffers)))
    if len(tops) < p ** max(d - 2, 0):  # a real table: the hits of the mirrors
        off = flat != 0  # the zero top is its own mirror
        flat = np.concatenate([flat, _mirror(flat[off], d, p)])
        b = np.concatenate([b, -b[off] % p])
        beta = np.concatenate([beta, np.conj(beta[off])])
    order = np.lexsort((b, flat))
    walk = tops, peak, arg, flat[order], b[order], beta[order]
    if shared is not None:
        _shared_walk.set((values, d, field, threshold, walk))
    return walk


def scan_obstructions(
    values: np.ndarray, d: int, threshold: float, field: PrimeField
) -> list[PhaseComponent]:
    """All phases P (zero constant term, deg <= d - 1) with |beta| >= threshold.

    Sorted by descending magnitude, then lexicographically on the
    ascending coefficient tuple.  d = 1 admits only P = 0; d >= 2 scans
    p^(d-1) candidates by batched DFTs, under the work cap, in one walk
    that keeps its hits.
    """
    values = _finite_values(values, field.p, d)
    _check_positive("threshold", threshold)
    peak = float(np.abs(values).max())
    found: list[PhaseComponent] = []
    *_, flat, b, beta = _walk(values, d, field, threshold)
    hit = np.abs(beta) >= threshold  # a shared walk may have a lower threshold
    for top, b_, beta_ in zip(_tops(flat[hit], d, field.p).tolist(), b[hit].tolist(),
                              beta[hit].tolist()):
        found.append(PhaseComponent(coeffs=(0, b_, *top)[:d], beta=beta_))
    for comp in found:
        if comp.magnitude > peak + 1e-9:
            raise ArithmeticError(f"correlation {comp.magnitude} exceeds the sup norm {peak}")
    found.sort(key=lambda c: (-c.magnitude, c.coeffs))
    return found


def max_phase_correlation(
    values: np.ndarray, d: int, field: PrimeField
) -> tuple[float, tuple[int, ...]]:
    """Largest |correlation| over all candidate phases, with its P.

    Ties go to the first top (a_2, ..., a_{d-1}) in flat order, then to
    the smallest linear coefficient.
    """
    values = _finite_values(values, field.p, d)
    tops, peak, arg = _walk(values, d, field)[:3]
    t = int(peak.argmax())
    return float(peak[t]), (0, int(arg[t]), *_tops(tops[t], d, field.p).tolist())[:d]


def decompose(
    values: np.ndarray, d: int, threshold: float, field: PrimeField
) -> Decomposition:
    """Split phi = t1 + t2, t2 the detected phases; reconstructs exactly."""
    values = np.asarray(values, dtype=np.complex128)
    components = tuple(scan_obstructions(values, d, threshold, field))
    t2 = np.zeros(field.p, dtype=np.complex128)
    for comp in components:
        t2 += comp.beta * _phase_values(comp.coeffs, field)
    return Decomposition(t1=values - t2, t2=t2, components=components, d=d,
                         threshold=threshold)


@dataclass(frozen=True)
class DichotomyReport:
    """What the data exhibits at one (table, d): phase or uniformity.

    ``u_d`` is the table's U_d, computed on first read: the phase branch
    needs none, and the other two branches read it.
    """

    p: int
    family: str
    d: int
    max_correlation: float
    argmax_coeffs: tuple[int, ...]
    ceiling: float
    table: TraceTable = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def u_d(self) -> float:
        return gowers_accelerated(self.table.values, self.d, self.table.field)

    @property
    def u_d_times_p(self) -> float:
        return self.u_d * self.p

    @property
    def branch(self) -> str:
        if self.max_correlation >= PHASE_PROXY:
            return "phase"
        return "uniform" if self.u_d_times_p <= self.ceiling else "inconclusive"


def dichotomy_report(
    table: TraceTable, d: int, ceiling: float = DEFAULT_CEILING
) -> DichotomyReport:
    """Classify a family table as phase / uniform / inconclusive at level d."""
    _check_positive("ceiling", ceiling)
    corr, coeffs = max_phase_correlation(table.values, d, table.field)
    return DichotomyReport(p=table.p, family=table.descriptor.label, d=d,
                           max_correlation=corr, argmax_coeffs=coeffs, ceiling=ceiling,
                           table=table)


def probe_report(
    table: TraceTable, d: int, threshold: float, ceiling: float = DEFAULT_CEILING
) -> dict:
    """Full probe of one table: components, residual norm, branch.

    Returns the JSON-ready report ``{p, family, d, components,
    residual_u_d, residual_u_d_times_p, branch}`` where each component
    is ``{coeffs, beta_re, beta_im}`` with ascending coefficients.
    The threshold and ceiling are checked before any walk, and the
    decomposition and the dichotomy share one walk of the candidates.
    """
    _check_positive("threshold", threshold)
    _check_positive("ceiling", ceiling)
    field = table.field
    token = _shared_walk.set(())
    try:
        decomp = decompose(table.values, d, threshold, field)
        report = dichotomy_report(table, d, ceiling)
    finally:
        _shared_walk.reset(token)
    # With no components t1 is the table itself, whose U_d the report holds;
    # a planted phase's report never computes it.
    residual_u = (gowers_accelerated(decomp.t1, d, field) if decomp.components
                  else report.u_d)
    return {
        "p": field.p,
        "family": table.descriptor.label,
        "d": d,
        "threshold": threshold,
        "components": [
            {
                "coeffs": list(c.coeffs),
                "beta_re": c.beta.real,
                "beta_im": c.beta.imag,
            }
            for c in decomp.components
        ],
        "residual_u_d": residual_u,
        "residual_u_d_times_p": residual_u * field.p,
        "branch": report.branch,
    }
