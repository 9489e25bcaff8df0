"""The Gowers uniformity pnorm U_d: one production route and two oracles.

``U_d(phi)`` denotes the 2^d-th power of the d-th Gowers norm of
phi : F_p -> C (the "pnorm"), so every route returns

    U_d(phi) = (1/p^(d+1)) * sum over x, h_1, ..., h_d of
               prod over omega in {0,1}^d of C^|omega| phi(x + omega.h),

where C is complex conjugation.  The routes are:

* ``gowers_accelerated`` -- the production route for every d >= 1: U_1 is
  |mean|^2, and for d >= 2, U_d = (1/p^k) sum over h in F_p^k of
  U_2(Delta_h phi), k = d - 2, with the Fourier base
  U_2 = sum_t |phi_hat(t)|^4.  U_2(Delta_h phi) is unchanged by permuting
  the h_i and by flipping their signs, so one row is transformed per
  orbit: C((p+1)/2 + k - 1, k) rows, about p^k / (2^k k!), each the
  product of 2^k shifted tables and then a prime-length DFT (U_2 itself
  is k = 0: one row, phi, with weight 1).  When phi is exactly real and
  k >= 1 the rows are real, and two of them share one complex DFT, of
  r + i s, whose spectrum splits into the spectra of r and s: half the
  rows are transformed.  Its one cost policy is the work cap on
  rows * p * 2^k + dft_rows * p * log2 p.
* ``gowers_oracle``      -- test oracle: the unrolled cube sum above, the
  ground truth; cost p^(d+1), refused beyond a work cap.
* ``gowers_recursive``   -- test oracle: the inductive definition
  U_{d+1} = (1/p) sum_h U_d(xi_h(phi)) down to the U_1 base, where
  xi_h(phi)(x) = phi(x+h) * conj(phi(x)); cost about p^d, uncapped.

The orbit kernel and the probe's walk of its candidates (``probe._walk``)
run their chunks of rows through one runner, :func:`_in_chunks`.  numpy's
FFT releases the GIL, so with two usable cores the chunks are dealt in
turn to the calling thread and one helper thread.  Each worker's chunk is
2^17 values, so at most 2^18 values are in flight, and each worker
allocates its buffers once and reuses them for every chunk: the kernel
gathers and multiplies a chunk's rows in them, the DFT overwrites the
rows with their spectra, and the U_2 sums are taken in place.  A large
array freed per chunk would go back to the OS and be faulted in again.
Partial sums are kept by chunk index and added in chunk order: U_d does
not depend on the number of workers or on thread timing.  A call with
one chunk runs on the calling thread alone and allocates only what that
chunk needs (U_2 at p ~ 10^6 transforms ``values[None, :]`` itself,
with no copy).

NaN or infinite values are refused.  Values are real up to rounding; the
routes check the imaginary part where one exists (relative to the real
part) and clamp tiny negative results to zero.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field import PrimeField, prime_field
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

# Imag/negativity tolerance; relaxed once accumulations grow past ~1e6 terms.
_TOL_TIGHT = 1e-9
_TOL_RELAXED = 1e-8


#: Values per chunk of rows.  Each worker holds one chunk's rows and
#: spectra: larger chunks run no faster and only raise peak memory.
_CHUNK_VALUES = 1 << 17


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: The calling thread and at most one helper.
_WORKERS = min(_usable_cores(), 2)


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


def _refuse_over_cap(what: str, formula: str, est: float, cap: int) -> None:
    """Refuse ``what`` (named with its d and p) when its estimate ``est`` exceeds ``cap``."""
    if est > cap:
        raise WorkCapExceeded(
            f"{what}: estimated cost {formula} = {est:.3g} exceeds work cap {cap}"
        )


def _in_chunks(n_chunks: int, work, buffers) -> list:
    """[work(i, *bufs) for i in range(n_chunks)], the chunks shared between workers.

    Chunk i goes to worker i % workers, with at most ``_WORKERS`` workers:
    the calling thread is worker 0 and the others are helper threads (one,
    when two cores are usable).  The calling thread makes each worker's
    arrays with ``buffers()`` before any helper starts, so they come from
    its own heap and are returned with it, and a worker passes the same
    arrays to every chunk it runs.  Results are stored by chunk index, so
    whatever the caller reduces them to does not depend on thread timing.
    A single chunk runs as ``work(0)`` on the calling thread, with no
    helper and no buffers kept: work allocates what that one chunk needs.
    An exception in any worker stops the others after their current chunk
    and is raised here.
    """
    if n_chunks <= 1:
        return [work(i) for i in range(n_chunks)]
    workers = min(_WORKERS, n_chunks)
    bufs = [buffers() for _ in range(workers)]
    results: list = [None] * n_chunks
    failed: list[BaseException] = []

    def run(first: int) -> None:
        try:
            for i in range(first, n_chunks, workers):
                if failed:
                    return
                results[i] = work(i, *bufs[first])
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)

    helpers = [threading.Thread(target=run, args=(w,), daemon=True) for w in range(1, workers)]
    for helper in helpers:
        helper.start()
    try:
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[0]
    return results


def _finite_values(values, p: int | None = None) -> np.ndarray:
    """values as complex128; NaN or infinite entries, or a shape other than (p,), are refused."""
    values = np.asarray(values, dtype=np.complex128)
    if p is not None and values.shape != (p,):
        raise ValueError(f"values must have shape (p,) = ({p},), got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    return values


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
    values = _finite_values(values)
    p = len(values)
    if d < 1:
        raise ValueError("d must be >= 1")
    _refuse_over_cap(f"oracle U_{d} at p = {p}", "p^(d+1)", p ** (d + 1), work_cap)
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
    values = _finite_values(values)
    p = len(values)
    if d < 1:
        raise ValueError("d must be >= 1")
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
    # itertools copies the pool into a tuple (~25 ms at p ~ 10^6); k = 0 reads none of it.
    pool = range((p + 1) // 2) if k else ()
    combos = itertools.combinations_with_replacement(pool, k)
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


def _paired_u2_sums(hat: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """U_2 of both real rows behind each spectrum Z of r + i s, interleaved.

    2 r_hat(t) = Z(t) + conj Z(-t) and 2i s_hat(t) = Z(t) - conj Z(-t).  A
    real row's spectrum has |r_hat(t)| = |r_hat(-t)|, so
    U_2(r) = r_hat(0)^4 + 2 sum over 0 < t < p/2 of |r_hat(t)|^4.  hat is
    overwritten; ``scratch`` is complex with hat's rows and at least
    (p - 1) / 2 columns.
    """
    half = (hat.shape[1] + 1) // 2
    sums = np.empty(2 * len(hat))
    sums[0::2] = hat[:, 0].real ** 4
    sums[1::2] = hat[:, 0].imag ** 4
    zt, zm = hat[:, 1:half], hat[:, : half - 1 : -1]  # Z(t), Z(p - t)
    np.conjugate(zm, out=zm)
    diff = np.subtract(zt, zm, out=scratch[:, : half - 1])
    # 2 |r_hat(t)|^4 = |Z(t) + conj Z(p - t)|^4 / 8, and likewise for s.
    sums[0::2] += _u2_sums(np.add(zt, zm, out=zt)) / 8
    sums[1::2] += _u2_sums(diff) / 8
    return sums


def gowers_accelerated(
    values: np.ndarray,
    d: int,
    field: PrimeField | None = None,
    work_cap: int = DEFAULT_WORK_CAP,
) -> float:
    """U_d for any d >= 1; from d = 2 on, one U_2 row per orbit of (h_1..h_{d-2}).

    d = 1 is :func:`u1`.  Otherwise each row Delta_h phi(x) = prod over
    omega in {0,1}^(d-2) of C^|omega| phi(x + omega.h) goes through the
    batched Fourier base, and the orbit weights from :func:`_orbits`
    restore the full average; at d = 2 the one row is phi itself.  When
    d >= 3 and phi is exactly real, the rows are real: rows 2j and 2j + 1
    are built as the real and imaginary parts of one complex DFT row (an
    odd last row of a chunk has one to itself) and split again by
    :func:`_paired_u2_sums`.  Complex tables and U_2 take one row per DFT
    row.  The chunks of rows run through :func:`_in_chunks`.
    Refuses non-finite values (``ValueError``) and any request whose
    estimated cost rows * p * 2^(d-2) + dft_rows * p * log2 p exceeds
    ``work_cap``: each of the rows = C((p+1)/2 + d - 3, d - 2) rows is
    2^(d-2) corner products, and each of the dft_rows rows transformed
    (ceil(rows / 2) for a real table at d >= 3, else rows) one DFT.
    """
    values = _finite_values(values, None if field is None else field.p)
    p = len(values)
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return u1(values)
    k = d - 2
    real = k >= 1 and not values.imag.any()
    n_orbits = math.comb((p + 1) // 2 + k - 1, k)  # rows, see _orbits
    dft_rows = (n_orbits + 1) // 2 if real else n_orbits
    est = n_orbits * p * 2**k + dft_rows * p * max(1.0, np.log2(p))
    _refuse_over_cap(f"U_{d} at p = {p}", "rows * p * 2^(d-2) + dft_rows * p * log2 p",
                     est, work_cap)
    field = field or prime_field(p)
    reps, weights = _orbits(p, k)
    if real:
        values = values.real
    if k:  # U_2 (k = 0) reads no shifted rows
        # By the parity of |omega|: phi or conj phi, doubled so that row s
        # of a corner's factor is doubled[s : s + p].
        doubled = [np.concatenate([v, v[:-1]]) for v in (values, np.conj(values))]
        window = np.arange(p)
    corners = [np.asarray(omega, dtype=np.int64)
               for omega in itertools.product((0, 1), repeat=k)][1:]
    chunk = max(1, _CHUNK_VALUES // p)
    if real:  # real rows pair up within a chunk
        chunk += chunk % 2

    def buffers(n=chunk):
        # Gather indices, one corner's factor, the DFT rows (which collect
        # the corner products and then hold their spectra), and the paired
        # sums' scratch.
        m = (n + 1) // 2 if real else n
        return (np.empty((n, p), np.int64), np.empty((n, p), values.dtype),
                np.empty((m, p), np.complex128),
                np.empty((m, p // 2), np.complex128) if real else None)

    def chunk_sum(i, *bufs):
        start = i * chunk
        h = reps[start : start + chunk]
        n = len(h)
        if not corners:  # U_2: the one row is phi itself, with weight 1
            return float(_u2_sums(field.dft(values[None, :]))[0])
        index, factor, hat, scratch = bufs or buffers(n)
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
            np.add(((h @ omega) % p)[:, None], window, out=index)
            np.take(doubled[omega.sum() % 2], index, out=factor, mode="clip")
            for rows, dest in parts:  # the first factor times phi (omega = 0)
                np.multiply(factor[rows], dest if j else values, out=dest)
        field.dft(hat, out=hat)
        sums = _paired_u2_sums(hat, scratch[: len(hat)])[:n] if real else _u2_sums(hat)
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
