"""The Gowers uniformity pnorm U_d: one production route and two oracles.

``U_d(phi)`` denotes the 2^d-th power of the d-th Gowers norm of
phi : F_p -> C (the "pnorm"), so every route returns

    U_d(phi) = (1/p^(d+1)) * sum over x, h_1, ..., h_d of
               prod over omega in {0,1}^d of C^|omega| phi(x + omega.h),

where C is complex conjugation.  The routes are:

* ``gowers_accelerated`` -- the production route for every d >= 1, under
  one work cap;
* ``gowers_oracle``      -- test oracle: the unrolled cube sum above, the
  ground truth; cost p^(d+1), refused beyond a work cap;
* ``gowers_recursive``   -- test oracle: the inductive definition
  U_{d+1} = (1/p) sum_h U_d(xi_h(phi)) down to the U_1 base, where
  xi_h(phi)(x) = phi(x+h) * conj(phi(x)); cost about p^d, uncapped.

NaN or infinite values are refused.  Values are real up to rounding; the
routes check the imaginary part where one exists (relative to the real
part) and clamp tiny negative results to zero.  README Numerics derives
the orbit kernel and the paired real rows.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field import _CHUNK_VALUES, PrimeField, _finite_values, _in_chunks, prime_field
from .traces import TraceTable

__all__ = [
    "WorkCapExceeded",
    "DEFAULT_WORK_CAP",
    "xi",
    "u1",
    "gowers_oracle",
    "gowers_recursive",
    "gowers_accelerated",
    "gowers_norm",
    "NormResult",
    "evaluate",
]

DEFAULT_WORK_CAP = 10**9
#: The default empirical ceiling on U_d * p (verify's and the probe's).
DEFAULT_CEILING = 1e3

# Imag/negativity tolerance; relaxed once accumulations grow past ~1e6 terms.
_TOL_TIGHT = 1e-9
_TOL_RELAXED = 1e-8


class WorkCapExceeded(RuntimeError):
    """A requested computation exceeds the configured work cap."""


def _tolerance(p: int, d: int) -> float:
    return _TOL_TIGHT if p ** (d + 1) <= 10**6 or (p <= 1009 and d <= 3) else _TOL_RELAXED


def _finalize(value: float, tol: float) -> float:
    if value < 0:
        if value < -tol:
            raise ArithmeticError(f"engine produced negative pnorm {value}")
        return 0.0
    return float(value)


def _refuse_over_cap(what: str, formula: str, estimate, cap: int) -> None:
    """Refuse ``what`` (named with its d and p) when its cost ``estimate()`` exceeds ``cap``.

    An estimate past the float range counts as infinite, and is refused.
    One built by :func:`_power` or :func:`_comb` overflows before its integer is computed.
    """
    _check_positive("work_cap", cap)
    try:
        est = float(estimate())
    except OverflowError:
        est = math.inf
    if est > cap:
        raise WorkCapExceeded(
            f"{what}: estimated cost {formula} = {est:.3g} exceeds work cap {cap}"
        )


def _power(base: int, exp: int) -> int:
    """base ** exp; OverflowError, without computing it, past 2^1100 (no float holds it)."""
    if exp * math.log2(base) > 1100:
        raise OverflowError(f"{base}^{exp} is past the float range")
    return base**exp


def _comb(n: int, k: int) -> int:
    """math.comb(n, k); OverflowError, without computing it, past 2^1100 (no float holds it)."""
    if math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) > 1100 * math.log(2):
        raise OverflowError(f"C({n}, {k}) is past the float range")
    return math.comb(n, k)


def _check_positive(name: str, value: float) -> None:
    """Refuse a ceiling, threshold or work cap that is not finite and positive."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_p_above_d(p: int, d: int) -> None:
    """Refuse p <= d: from degree p on, the phases x^k alias (x^p = x)."""
    if p <= d:
        raise ValueError(f"p = {p} violates the precondition p > d = {d}")


def xi(values: np.ndarray, h: int) -> np.ndarray:
    """Multiplicative difference: x -> phi(x+h) * conj(phi(x))."""
    return np.roll(values, -h) * np.conj(values)


def u1(values: np.ndarray) -> float:
    """U_1(phi) = |mean(phi)|^2 (the squared average; a seminorm)."""
    m = np.mean(values)
    return float(m.real * m.real + m.imag * m.imag)


def _shifts(values: np.ndarray) -> np.ndarray:
    """Row s is x -> phi(x + s): a (p, p) view of the doubled table, not a copy."""
    return sliding_window_view(np.concatenate([values, values[:-1]]), len(values))


def gowers_oracle(values: np.ndarray, d: int, work_cap: int = DEFAULT_WORK_CAP) -> float:
    """Ground-truth U_d by the unrolled cube sum over (x, h_1, ..., h_d)."""
    values = _finite_values(values, d=d)
    p = len(values)
    _refuse_over_cap(f"oracle U_{d} at p = {p}", "p^(d+1)", lambda: _power(p, d + 1), work_cap)
    shifted = _shifts(values)
    corners = list(itertools.product((0, 1), repeat=d))
    powers = p ** np.arange(d, dtype=np.int64)
    total = 0.0 + 0.0j
    block = max(1, (1 << 22) // p)
    n_tuples = p**d
    for start in range(0, n_tuples, block):
        ks = np.arange(start, min(start + block, n_tuples), dtype=np.int64)
        h = (ks[:, None] // powers[None, :]) % p  # base-p digits: the h-tuples
        prod = np.ones((len(h), p), dtype=np.complex128)
        for omega in corners:
            rows = shifted[(h @ np.asarray(omega, dtype=np.int64)) % p]
            prod *= np.conj(rows) if sum(omega) % 2 else rows
        total += prod.sum()
    total /= p ** (d + 1)
    tol = _tolerance(p, d)
    if abs(total.imag) > tol * max(1.0, abs(total.real)):
        raise ArithmeticError(f"cube sum has imaginary part {total.imag}")
    return _finalize(total.real, tol)


def _u1_rows(matrix: np.ndarray) -> np.ndarray:
    m = matrix.mean(axis=1)
    return m.real * m.real + m.imag * m.imag


def gowers_recursive(values: np.ndarray, d: int) -> float:
    """U_d by the inductive definition, recursing on d down to U_1."""
    values = _finite_values(values, d=d)
    p = len(values)
    if d == 1:
        return _finalize(u1(values), _tolerance(p, d))
    if d == 2:
        # (1/p) sum_h U_1(xi_h(phi)), all h at once in row-chunks.
        acc = np.empty(p)
        chunk = max(1, (1 << 21) // p)
        shifted, conj = _shifts(values), np.conj(values)
        for start in range(0, p, chunk):
            acc[start : start + chunk] = _u1_rows(shifted[start : start + chunk] * conj)
        return _finalize(float(acc.mean()), _tolerance(p, d))
    per_h = np.empty(p)
    for h in range(p):
        per_h[h] = gowers_recursive(xi(values, h), d - 1)
    return _finalize(float(per_h.mean()), _tolerance(p, d))


def _orbits(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Outer directions h in F_p^k up to permutation and sign, with orbit sizes.

    The representatives are the sorted k-tuples over 0..(p-1)/2; a
    representative's orbit holds k!/prod(mult!) arrangements times
    2^(nonzero entries) sign choices, so the weights sum to p^k.  At k = 0
    there is one empty representative of weight 1.
    """
    combos = itertools.combinations_with_replacement(range((p + 1) // 2), k)
    reps = np.array(list(combos), dtype=np.int64)  # shape (1, 0) at k = 0
    # k!/prod(mult!) = prod over positions of (i+1) / (1-based place in its run).
    weights = np.ones(len(reps))
    place = np.ones(len(reps))
    for i in range(k):
        if i:
            place = np.where(reps[:, i] == reps[:, i - 1], place + 1, 1.0)
        weights *= (i + 1) / place
    weights *= 2.0 ** np.count_nonzero(reps, axis=1)
    return reps, np.rint(weights)


def _u2_sums(hat: np.ndarray) -> np.ndarray:
    """sum_t |hat(t)|^4 for each row of a batch of spectra, computed in hat's memory.

    hat's last axis must be contiguous; its values are overwritten.
    """
    parts = hat.view(np.float64)  # re, im interleaved
    np.square(parts, out=parts)
    power = parts[:, 0::2]
    np.add(power, parts[:, 1::2], out=power)
    np.square(power, out=power)
    return power.sum(axis=1)


def _paired_u2_sums(hat: np.ndarray, scratch: np.ndarray, partners: slice) -> np.ndarray:
    """U_2 of both real rows behind each spectrum Z of r + i s, interleaved.

    2 r_hat(t) = Z(t) + conj Z(-t) and 2i s_hat(t) = Z(t) - conj Z(-t), and
    U_2(r) = r_hat(0)^4 + 2 sum of |r_hat(t)|^4 over the t of
    hat[:, 1:(p + 1) // 2], whose partners Z(-t) are hat[:, partners].
    hat is overwritten; ``scratch`` is complex with hat's rows and at least
    (p - 1) / 2 columns.
    """
    half = (hat.shape[1] + 1) // 2
    sums = np.empty(2 * len(hat))
    sums[0::2] = hat[:, 0].real ** 4
    sums[1::2] = hat[:, 0].imag ** 4
    zt, zm = hat[:, 1:half], hat[:, partners]  # Z(t), Z(-t)
    np.conjugate(zm, out=zm)
    diff = np.subtract(zt, zm, out=scratch[:, : half - 1])
    # 2 |r_hat(t)|^4 = |Z(t) + conj Z(-t)|^4 / 8, and likewise for s.
    sums[0::2] += _u2_sums(np.add(zt, zm, out=zt)) / 8
    sums[1::2] += _u2_sums(diff) / 8
    return sums


def gowers_accelerated(
    values: np.ndarray,
    d: int,
    field: PrimeField | None = None,
    work_cap: int = DEFAULT_WORK_CAP,
) -> float:
    """U_d for any d >= 1; from d = 3 on, one U_2 row per orbit of (h_1..h_{d-2}).

    d = 1 is :func:`u1`, and d = 2 is p^-3 sum_h |c(h)|^2 for c the
    :meth:`PrimeField.correlation` of phi.  From d = 3 on,
    U_d = (1/p^k) sum over h in F_p^k of U_2(Delta_h phi), k = d - 2, with
    Delta_h phi(x) = prod over omega in {0,1}^k of C^|omega| phi(x + omega.h)
    and the Fourier base U_2 = sum_t |hat(t)|^4.  One row is transformed
    per orbit of h under permutation and sign (:func:`_orbits` weighs
    them), laid out in the field plan's order and turned into spectra by
    :meth:`PrimeField._transform`.  The rows of an exactly real phi are
    real and pair up, two per complex DFT row (:func:`_paired_u2_sums`).
    The chunks of rows run through :func:`_in_chunks`.  Refuses non-finite
    values (``ValueError``) and any request whose estimated cost
    rows * p * 2^k + dft_rows * p * log2 p exceeds ``work_cap``: each of
    the rows = C((p+1)/2 + k - 1, k) rows is 2^k corner products, and each
    of the dft_rows = ceil(rows / 2) rows of a real table (rows of a
    complex one) one DFT.
    """
    values = _finite_values(values, None if field is None else field.p, d)
    p = len(values)
    if d == 1:
        return u1(values)
    k = d - 2
    real = not values.imag.any()

    def estimate():
        rows = _comb((p + 1) // 2 + k - 1, k)  # see _orbits
        dft_rows = (rows + 1) // 2 if real else rows
        return rows * p * _power(2, k) + dft_rows * p * max(1.0, math.log2(p))

    _refuse_over_cap(f"U_{d} at p = {p}", "rows * p * 2^(d-2) + dft_rows * p * log2 p",
                     estimate, work_cap)
    field = field or prime_field(p)
    if real:
        values = values.real
    if not k:
        # sum |c(h)|^2 without BLAS, whose threads would spin on the helper's core
        c = field.correlation(values).view(np.float64)
        return _finalize(float(np.square(c, out=c).sum()) / p**3, _tolerance(p, d))
    reps, weights = _orbits(p, k)
    # By the parity of |omega|: phi or conj phi, doubled so that row s of a
    # corner's factor is doubled[s : s + p].
    doubled = [np.concatenate([v, v[:-1]]) for v in (values, np.conj(values))]
    # Column j of every row holds x = order[j] (natural, or Rader's order).
    plan = field._plan
    first = values[plan.order]
    corners = [np.asarray(omega, dtype=np.int64)
               for omega in itertools.product((0, 1), repeat=k)][1:]
    chunk = min(max(1, _CHUNK_VALUES // p), len(reps))
    if real:  # real rows pair up within a chunk
        chunk += chunk % 2

    def buffers():
        # Gather indices, one corner's factor, the DFT rows (which collect
        # the corner products and then hold their spectra), and the paired
        # sums' scratch.
        m = (chunk + 1) // 2 if real else chunk
        return (np.empty((chunk, p), np.int64), np.empty((chunk, p), values.dtype),
                np.empty((m, p), np.complex128),
                np.empty((m, p // 2), np.complex128) if real else None)

    def chunk_sum(i, index, factor, hat, scratch):
        start = i * chunk
        h = reps[start : start + chunk]
        n = len(h)
        index, factor = index[:n], factor[:n]
        hat = hat[: (n + 1) // 2 if real else n]
        # Rows 2j and 2j + 1 of a real table are the real and imaginary
        # parts of DFT row j (an odd last row has 0 for Im); a complex
        # table's rows are the DFT rows.
        if real:
            parts = [(slice(0, None, 2), hat.real), (slice(1, None, 2), hat.imag[: n // 2])]
            hat.imag[n // 2 :] = 0.0
        else:
            parts = [(slice(None), hat)]
        for j, omega in enumerate(corners):
            np.add(((h @ omega) % p)[:, None], plan.order, out=index)
            np.take(doubled[omega.sum() % 2], index, out=factor, mode="clip")
            for rows, dest in parts:  # the first factor times phi (omega = 0)
                np.multiply(factor[rows], dest if j else first, out=dest)
        field._transform(hat)
        sums = (_paired_u2_sums(hat, scratch[: len(hat)], plan.partners)[:n] if real
                else _u2_sums(hat))
        return float(weights[start : start + chunk] @ sums)

    partial = _in_chunks(-(-len(reps) // chunk), chunk_sum, buffers)
    return _finalize(sum(partial) / p**k, _tolerance(p, d))


def gowers_norm(values: np.ndarray, d: int, field: PrimeField | None = None) -> float:
    """The norm itself, U_d^(1/2^d), via :func:`gowers_accelerated`."""
    return float(gowers_accelerated(values, d, field) ** (1.0 / 2**d))


# -- result ------------------------------------------------------------------


@dataclass(frozen=True)
class NormResult:
    """U_d plus derived quantities and timing for one run."""

    p: int
    d: int
    u_d: float
    norm: float
    u_d_times_p: float
    elapsed: float


def evaluate(table: TraceTable, d: int, work_cap: int = DEFAULT_WORK_CAP) -> NormResult:
    """U_d of a trace table by :func:`gowers_accelerated`, packaged and timed.

    Non-finite values are refused before anything runs.  When the family
    tracks its rank, the trivial bound U_d <= rank^(2^d) is asserted on
    the way out.
    """
    values = _finite_values(table.values)
    p = len(values)
    start = time.perf_counter()
    u_d = gowers_accelerated(values, d, table.field, work_cap)
    elapsed = time.perf_counter() - start
    rank = table.descriptor.rank
    if rank >= 1:
        ceiling = rank ** (2**d) + 1e-6
        if u_d > ceiling:
            raise ArithmeticError(
                f"trivial bound violated: U_{d} = {u_d} > rank^(2^d) = {ceiling}"
            )
    return NormResult(
        p=p,
        d=d,
        u_d=u_d,
        norm=float(u_d ** (1.0 / 2**d)),
        u_d_times_p=u_d * p,
        elapsed=elapsed,
    )
