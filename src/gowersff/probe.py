"""Polynomial-phase obstruction scanning and the structure dichotomy.

A function with large U_d norm must correlate with some phase
e(P(x)/p), deg P <= d - 1.  ``scan_obstructions`` lists every candidate
P with zero constant term (a constant term only rotates the
coefficient) whose correlation reaches a threshold, ``max_phase_correlation``
finds the largest, and ``decompose`` splits phi = t1 + t2 with t2 the
detected phase part.  All of them read one walk of the p^(d-1)
candidates (``_walk``), refused when its cost p^(d-2) * p * (d + log2 p)
exceeds the default work cap.  ``probe_report`` lends its one walk (at
d = 3, of the tops its U_3 leaves) to its scan and dichotomy.  Values
must be finite; every entry point refuses NaN and infinities.

``dichotomy_report`` classifies a family table as "phase" (some
correlation >= 0.99, the analytic proxy for containing that phase
exactly), "uniform" (U_d * p under an empirical ceiling), or
"inconclusive".  The phase check takes precedence: an exact phase also
has modest U_d * p at desk-scale p, and it belongs to the first branch.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .field import _CHUNK_VALUES, PrimeField, _finite_values, _in_chunks
from . import polys
from .norms import (
    DEFAULT_CEILING,
    DEFAULT_WORK_CAP,
    _check_p_above_d,
    _check_positive,
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
        """|beta| as the walk's threshold test computes it (``np.abs``)."""
        return float(np.abs(self.beta))


@dataclass(frozen=True)
class Decomposition:
    """phi = t1 + t2 with t2 the sum of the detected phase components."""

    t1: np.ndarray
    t2: np.ndarray
    components: tuple[PhaseComponent, ...]


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


#: Inside a probe_report: (values, d, field, walk), the walk it lends to its
#: scan and its dichotomy.  None outside a probe.
_shared_walk: ContextVar[tuple | None] = ContextVar("_shared_walk", default=None)


def _refuse_walk(p: int, d: int) -> None:
    """Refuse p <= d, and a walk of all tops costing p^(d-2) * p * (d + log2 p) over the cap."""
    _check_p_above_d(p, d)
    _refuse_over_cap(f"probe at d = {d}, p = {p}", "p^(d-2) * p * (d + log2 p)",
                     lambda: float(p) ** max(d - 1, 1) * (d + math.log2(p)), DEFAULT_WORK_CAP)


def _walk(values: np.ndarray, d: int, field: PrimeField, threshold: float = np.inf,
          tops: np.ndarray | None = None):
    """(best, flat, b, beta): one walk of the p^(d-1) candidates (one at d = 1).

    The walk runs in chunks over the flat tops (a_2, ..., a_{d-1}), ascending.
    A top's row is the transform of phi(x) e(-(a_2 x^2 + ... + a_{d-1} x^(d-1))/p),
    twisted in the order of ``field._plan`` in a worker's (chunk, p) int64 and
    complex buffers and run through :meth:`PrimeField._transform` in the second;
    its column c is the correlation with P = (0, b, *top) for b = ``_plan.freqs[c]``.
    At d = 2 the one top is (); at d = 1 the one row is the mean.  A real
    phi at d >= 3 walks only the zero top and the tops whose leading
    nonzero digit is at most (p - 1)/2, the ones before their mirror -top.
    Given ``tops`` (flat indices), it walks only those; an empty walk's best is (0.0, 0, 0).

    best is (|beta|, flat top, b) of the largest entry, of equal ones the
    first top walked, then the smallest b.  (flat, b, beta) are the entries
    with |beta| >= threshold, in walk order (by top, then by column); the tops not
    walked take theirs from their mirrors as (-top, -b, conj beta), after
    the walked ones.  Returns the walk a probe_report lent for the same
    values object, d and field.
    Refuses first what :func:`_refuse_walk` refuses.
    """
    shared = _shared_walk.get()
    if shared and shared[0] is values and shared[1] == d and shared[2] is field:
        return shared[3]
    p = field.p
    _refuse_walk(p, d)
    walked = np.arange(p ** max(d - 2, 0))
    real = d >= 3 and not values.imag.any()
    if real:  # leading nonzero digit a_k at most (p - 1)/2
        walked = np.concatenate([[0], *(np.arange(p**k, (p + 1) // 2 * p**k)
                                        for k in range(d - 2))])
    if tops is not None:
        walked = walked[np.isin(walked, tops)]
    if not len(walked):
        return (0.0, 0, 0), np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, complex)
    x, freqs = field._plan.order, field._plan.freqs  # column j holds x = order[j]
    laid_out = values[x]
    powers = [x * x % p]  # x^2, ..., x^(d-1)
    while len(powers) < d - 2:
        powers.append(powers[-1] * x % p)
    chunk = min(max(1, _CHUNK_VALUES // p), len(walked))

    def buffers():
        shape = (chunk, p)
        return np.empty(shape, np.int64), np.empty(shape, np.complex128), np.empty(shape)

    def walk_chunk(i, phase_buf, twisted_buf, mag_buf):
        flat = walked[i * chunk : (i + 1) * chunk]
        if d == 1:
            hat = values.mean(keepdims=True)[None]
        else:
            tops = _tops(flat, max(d, 3), p)  # d = 2's one top () reads as (0,)
            # a_2 x^2 + ... + a_{d-1} x^(d-1) mod p; phi(x) e(-that/p), then
            # its transform, all in one array.
            phases = np.multiply(tops[:, :1], powers[0], out=phase_buf[: len(tops)])
            for j in range(1, d - 2):
                phases += tops[:, j : j + 1] * powers[j]
            phases %= p
            twisted = np.take(field.char_table, phases, out=twisted_buf[: len(tops)],
                              mode="clip")
            np.conjugate(twisted, out=twisted)
            np.multiply(laid_out, twisted, out=twisted)
            hat = field._transform(twisted)
        mag = np.abs(hat, out=mag_buf[: len(hat), : hat.shape[1]])
        peak = mag.max(axis=1)
        r = int(peak.argmax())  # the chunk's first top of largest peak, at its smallest b
        best = peak[r], flat[r], freqs[np.flatnonzero(mag[r] == peak[r])].min()
        hits = np.flatnonzero(peak >= threshold)
        j, c = np.nonzero(mag[hits] >= threshold)
        return best, flat[hits[j]], freqs[c], hat[hits[j], c]

    bests, *found = zip(*_in_chunks(-(-len(walked) // chunk), walk_chunk, buffers))
    flat, b, beta = map(np.concatenate, found)
    if real:  # the hits of the mirrors
        off = flat != 0  # the zero top is its own mirror
        flat = np.concatenate([flat, _mirror(flat[off], d, p)])
        b = np.concatenate([b, -b[off] % p])
        beta = np.concatenate([beta, np.conj(beta[off])])
    # max keeps the first of equal peaks, and the chunks come in flat order.
    return max(bests, key=lambda best: best[0]), flat, b, beta


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
    *_, flat, b, beta = _walk(values, d, field, threshold)
    found = [PhaseComponent(coeffs=(0, b_, *top)[:d], beta=beta_) for top, b_, beta_
             in zip(_tops(flat, d, field.p).tolist(), b.tolist(), beta.tolist())]
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
    peak, top, b = _walk(values, d, field)[0]
    return float(peak), (0, int(b), *_tops(top, d, field.p).tolist())[:d]


def decompose(
    values: np.ndarray, d: int, threshold: float, field: PrimeField
) -> Decomposition:
    """Split phi = t1 + t2, t2 the detected phases; reconstructs exactly."""
    values = np.asarray(values, dtype=np.complex128)
    components = tuple(scan_obstructions(values, d, threshold, field))
    t2 = np.zeros(field.p, dtype=np.complex128)
    for comp in components:
        t2 += comp.beta * _phase_values(comp.coeffs, field)
    return Decomposition(t1=values - t2, t2=t2, components=components)


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
    corr = max_phase_correlation(table.values, d, table.field)[0]
    return DichotomyReport(p=table.p, family=table.descriptor.label, d=d,
                           max_correlation=corr, ceiling=ceiling, table=table)


def probe_report(
    table: TraceTable, d: int, threshold: float, ceiling: float = DEFAULT_CEILING
) -> dict:
    """Full probe of one table: components, residual norm, branch.

    Returns the JSON-ready report ``{p, family, d, threshold, components,
    residual_u_d, residual_u_d_times_p, branch}`` where each component
    is ``{coeffs, beta_re, beta_im}`` with ascending coefficients.
    The threshold, the ceiling and the walk's cost are checked first.  At
    d = 3 the table's U_3 then rules tops out (README Numerics), and the one
    walk of the rest is read by the decomposition and the dichotomy, whose
    max_correlation is exact from min(threshold, PHASE_PROXY) on.
    """
    _check_positive("threshold", threshold)
    _check_positive("ceiling", ceiling)
    field, values = table.field, _finite_values(table.values, table.p, d)
    _refuse_walk(field.p, d)
    tops = u_d = None
    if d == 3:
        energies = np.empty(field.p)
        u_d = gowers_accelerated(values, d, field, twists=energies)
        tops = np.flatnonzero(energies >= min(threshold, PHASE_PROXY) ** 4 * (1 - 1e-9))
    token = _shared_walk.set((values, d, field, _walk(values, d, field, threshold, tops)))
    try:
        decomp = decompose(values, d, threshold, field)
        report = dichotomy_report(table, d, ceiling)
    finally:
        _shared_walk.reset(token)
    if u_d is not None:  # the table's U_3, where the cached property would compute it
        vars(report)["u_d"] = u_d
    # With no components t1 is the table itself, whose U_d the report holds.
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
