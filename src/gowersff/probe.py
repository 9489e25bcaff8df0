"""Polynomial-phase obstruction scanning and the structure dichotomy.

A function with large U_d norm must correlate with some phase
e(P(x)/p), deg P <= d - 1.  This module finds such phases analytically:
``scan_obstructions`` enumerates all candidate P with zero constant
term (constant terms only rotate the coefficient and are normalized
away), reading whole coefficient rows off prime-length DFTs, and
``decompose`` splits phi = t1 + t2 with t2 the detected phase part.

``dichotomy_report`` classifies a family table as "phase" (some
correlation >= 0.99, the analytic proxy for containing that phase
exactly), "uniform" (U_d * p under an empirical ceiling), or
"inconclusive".  The phase check takes precedence: an exact phase also
has modest U_d * p at desk-scale p, and it belongs to the first branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import PrimeField
from . import polys
from .harness import DEFAULT_CEILING
from .norms import WorkCapExceeded, gowers_accelerated
from .traces import TraceTable

__all__ = [
    "PhaseComponent",
    "Decomposition",
    "DichotomyReport",
    "phase_correlation",
    "scan_obstructions",
    "correlate_candidates",
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

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1


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
    values = np.asarray(values, dtype=np.complex128)
    return complex((values * np.conj(_phase_values(coeffs, field))).mean())


def _correlation_rows(values: np.ndarray, d: int, field: PrimeField):
    """Yield (quadratic_coeff, correlations-over-linear-coeff) rows.

    Degree <= 1 candidates are exactly the DFT of phi; for each
    quadratic coefficient a, the row is the DFT of phi(x) e(-a x^2/p).
    """
    p = field.p
    if d == 2:
        yield None, field.dft(values)
        return
    x2 = (np.arange(p, dtype=np.int64) ** 2) % p
    # 2^18 values (4 MB of complex128) per chunk, as in the U_d kernel.
    chunk = max(1, (1 << 18) // p)
    for start in range(0, p, chunk):
        a = np.arange(start, min(start + chunk, p), dtype=np.int64)
        twisted = values[None, :] * np.conj(field.char_table[(a[:, None] * x2[None, :]) % p])
        rows = field.dft(twisted)
        for i, ai in enumerate(a):
            yield int(ai), rows[i]


def scan_obstructions(
    values: np.ndarray, d: int, threshold: float, field: PrimeField
) -> list[PhaseComponent]:
    """All phases P (zero constant term, deg <= d - 1) with |beta| >= threshold.

    Sorted by descending magnitude, then lexicographically on the
    ascending coefficient tuple.  d = 1 admits only P = 0; d in {2, 3}
    scan p resp. p^2 candidates by batched DFTs; d >= 4 is refused.
    """
    values = np.asarray(values, dtype=np.complex128)
    p = field.p
    if d < 1:
        raise ValueError("d must be >= 1")
    if d >= 4:
        raise WorkCapExceeded(
            f"scanning degree <= {d - 1} means p^(d-1) = {p ** (d - 1)} candidates; "
            "full scans stop at d = 3 (supply explicit candidates instead)"
        )
    peak = float(np.abs(values).max())
    found: list[PhaseComponent] = []
    if d == 1:
        beta = complex(values.mean())
        if abs(beta) >= threshold:
            found.append(PhaseComponent(coeffs=(0,), beta=beta))
    else:
        for a, row in _correlation_rows(values, d, field):
            hits = np.nonzero(np.abs(row) >= threshold)[0]
            for b in hits:
                coeffs = (0, int(b)) if a is None else (0, int(b), a)
                found.append(PhaseComponent(coeffs=coeffs, beta=complex(row[b])))
    for comp in found:
        assert comp.magnitude <= peak + 1e-9, "correlation exceeds the sup norm"
    found.sort(key=lambda c: (-c.magnitude, c.coeffs))
    return found


def correlate_candidates(
    values: np.ndarray, candidates, threshold: float, field: PrimeField
) -> list[PhaseComponent]:
    """Like :func:`scan_obstructions` but over an explicit list of P.

    This is the route for degrees above 2, where full enumeration is
    refused; ``candidates`` holds ascending coefficient tuples.
    """
    values = np.asarray(values, dtype=np.complex128)
    found = []
    for coeffs in candidates:
        coeffs = tuple(int(c) % field.p for c in coeffs)
        beta = phase_correlation(values, coeffs, field)
        if abs(beta) >= threshold:
            found.append(PhaseComponent(coeffs=coeffs, beta=beta))
    found.sort(key=lambda c: (-c.magnitude, c.coeffs))
    return found


def max_phase_correlation(
    values: np.ndarray, d: int, field: PrimeField
) -> tuple[float, tuple[int, ...]]:
    """Largest |correlation| over all candidate phases, with its P."""
    values = np.asarray(values, dtype=np.complex128)
    if d == 1:
        return abs(complex(values.mean())), (0,)
    best, best_coeffs = -1.0, (0,)
    for a, row in _correlation_rows(values, d, field):
        mags = np.abs(row)
        b = int(mags.argmax())
        if mags[b] > best:
            best = float(mags[b])
            best_coeffs = (0, b) if a is None else (0, b, a)
    return best, best_coeffs


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
    """What the data exhibits at one (table, d): phase or uniformity."""

    p: int
    family: str
    d: int
    max_correlation: float
    argmax_coeffs: tuple[int, ...]
    u_d: float
    u_d_times_p: float
    ceiling: float
    branch: str


def dichotomy_report(
    table: TraceTable, d: int, ceiling: float = DEFAULT_CEILING
) -> DichotomyReport:
    """Classify a family table as phase / uniform / inconclusive at level d."""
    if d not in (2, 3):
        raise ValueError("dichotomy reporting supports d in {2, 3}")
    field = table.field
    corr, coeffs = max_phase_correlation(table.values, d, field)
    u_d = gowers_accelerated(table.values, d, field)
    u_d_p = u_d * field.p
    if corr >= PHASE_PROXY:
        branch = "phase"
    elif u_d_p <= ceiling:
        branch = "uniform"
    else:
        branch = "inconclusive"
    return DichotomyReport(
        p=field.p,
        family=table.descriptor.label,
        d=d,
        max_correlation=corr,
        argmax_coeffs=coeffs,
        u_d=u_d,
        u_d_times_p=u_d_p,
        ceiling=ceiling,
        branch=branch,
    )


def probe_report(
    table: TraceTable, d: int, threshold: float, ceiling: float = DEFAULT_CEILING
) -> dict:
    """Full probe of one table: components, residual norm, branch.

    Returns the JSON-ready report ``{p, family, d, components,
    residual_u_d, residual_u_d_times_p, branch}`` where each component
    is ``{coeffs, beta_re, beta_im}`` with ascending coefficients.
    """
    field = table.field
    decomp = decompose(table.values, d, threshold, field)
    residual = decomp.t1
    residual_u = gowers_accelerated(residual, d, field)
    report = dichotomy_report(table, d, ceiling) if d in (2, 3) else None
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
        "branch": report.branch if report else "n/a",
    }
