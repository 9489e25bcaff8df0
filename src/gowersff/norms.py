"""The Gowers uniformity pnorm U_d: one production route and two oracles.

``U_d(phi)`` denotes the 2^d-th power of the d-th Gowers norm of
phi : F_p -> C (the "pnorm"), so every route returns

    U_d(phi) = (1/p^(d+1)) * sum over x, h_1, ..., h_d of
               prod over omega in {0,1}^d of C^|omega| phi(x + omega.h),

where C is complex conjugation.  The routes are:

* ``gowers_accelerated`` -- the production route for every d >= 1 (``u1``
  at d = 1), under one work cap;
* ``gowers_oracle``      -- test oracle: the unrolled cube sum above, the
  ground truth; cost p^(d+1), refused beyond a work cap;
* ``gowers_recursive``   -- test oracle: the inductive definition
  U_{d+1} = (1/p) sum_h U_d(xi_h(phi)) down to u1's U_1 base, where
  xi_h(phi)(x) = phi(x+h) * conj(phi(x)); cost about p^d, uncapped.  Each
  level runs in blocks of (row, h) pairs, one numpy pass each: about 2^16
  values at small p, and never more than 2^21.

Every route and ``u1`` refuse NaN, infinite or empty values.  Values are
real up to rounding; the routes check the imaginary part where one exists
(relative to the real part) and clamp tiny negative results to zero.
README Numerics derives the orbit kernel and the paired real rows.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field import (_BATCH_VALUES, _CHUNK_VALUES, PrimeField, _finite_values, _in_chunks,
                    prime_field)
from .traces import TraceTable

__all__ = [
    "WorkCapExceeded",
    "DEFAULT_WORK_CAP",
    "u1",
    "gowers_oracle",
    "gowers_recursive",
    "gowers_accelerated",
    "gowers_norm",
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


def _check_positive(name: str, value: float) -> None:
    """Refuse a ceiling, threshold or work cap that is not finite and positive."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_p_above_d(p: int, d: int) -> None:
    """Refuse p <= d: from degree p on, the phases x^k alias (x^p = x)."""
    if p <= d:
        raise ValueError(f"p = {p} violates the precondition p > d = {d}")


def u1(values: np.ndarray) -> float:
    """U_1(phi) = |mean(phi)|^2 (a seminorm); it refuses what every route refuses."""
    return float(_u1_rows(_finite_values(values)))


def _u1_rows(matrix: np.ndarray) -> np.ndarray:
    m = matrix.mean(axis=-1)
    return m.real * m.real + m.imag * m.imag


def _shifts(values: np.ndarray) -> np.ndarray:
    """Row s is x -> phi(x + s) along the last axis: a (..., p, p) view, not a copy."""
    doubled = np.concatenate([values, values[..., :-1]], axis=-1)
    return sliding_window_view(doubled, values.shape[-1], axis=-1)


def gowers_oracle(values: np.ndarray, d: int, work_cap: int = DEFAULT_WORK_CAP) -> float:
    """Ground-truth U_d by the unrolled cube sum over (x, h_1, ..., h_d)."""
    values = _finite_values(values, d=d)
    p = len(values)
    _refuse_over_cap(f"oracle U_{d} at p = {p}", "p^(d+1)", lambda: float(p) ** (d + 1), work_cap)
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


def gowers_recursive(values: np.ndarray, d: int) -> float:
    """U_d by the inductive definition, recursing on d down to U_1."""
    values = _finite_values(values, d=d)
    return _finalize(float(_recursive_rows(values, d)), _tolerance(len(values), d))


def _recursive_rows(rows: np.ndarray, d: int) -> np.ndarray:
    """U_d of each row of a (..., p) batch, bit for bit as one row and one h at a time.

    A block of (row, h) pairs, about 2^16 values at small p and at most
    2^21, forms its xi_h rows in one pass and recurses on them at once.
    Rows that are not finite are refused from d = 2 on.
    """
    if d == 1:
        return _u1_rows(rows)
    if not np.isfinite(rows).all():
        raise ValueError("values must be finite")
    shape, p = rows.shape[:-1], rows.shape[-1]
    rows = rows.reshape(-1, p)
    hs = min(p, max(1, (1 << 21) // p))
    group = min(len(rows), max(1, (1 << 16) // (hs * p)))
    u_d = np.empty(len(rows))
    for r in range(0, len(rows), group):
        sel = slice(r, r + group)
        shifted, conj = _shifts(rows[sel]), np.conj(rows[sel])[..., None, :]
        per_h = np.empty(shifted.shape[:-1])
        for h in range(0, p, hs):  # each product is freed before the next: 2x at large p
            per_h[..., h : h + hs] = _recursive_rows(shifted[..., h : h + hs, :] * conj, d - 1)
        u_d[sel] = per_h.mean(axis=-1)
    return u_d.reshape(shape)


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


def _u2_sums(hat: np.ndarray, kept: np.ndarray | None = None) -> np.ndarray:
    """sum_t |hat(t)|^4 for each row of a batch of spectra, computed in hat's memory.

    hat's last axis must be contiguous; its values are overwritten.  Given
    ``kept``, of hat's shape, it receives |hat|^2 first.
    """
    parts = hat.view(np.float64)  # re, im interleaved
    np.square(parts, out=parts)
    power = parts[:, 0::2]
    np.add(power, parts[:, 1::2], out=power)
    if kept is not None:
        np.copyto(kept, power)
    np.square(power, out=power)
    return power.sum(axis=1)


def _paired_u2_sums(hat: np.ndarray, scratch: np.ndarray, partners: slice,
                    kept: np.ndarray | None = None) -> np.ndarray:
    """U_2 of both real rows behind each spectrum Z of r + i s, interleaved.

    2 r_hat(t) = Z(t) + conj Z(-t) and 2i s_hat(t) = Z(t) - conj Z(-t), and
    U_2(r) = r_hat(0)^4 + 2 sum of |r_hat(t)|^4 over the t of
    hat[:, 1:(p + 1) // 2], whose partners Z(-t) are hat[:, partners].
    hat is overwritten; ``scratch`` is complex with hat's rows and at least
    (p - 1) / 2 columns.  Given ``kept``, its rows 2j and 2j + 1 receive
    |2 r_hat|^2 and |2 s_hat|^2 over those t.
    """
    half = (hat.shape[1] + 1) // 2
    sums = np.empty(2 * len(hat))
    sums[0::2] = hat[:, 0].real ** 4
    sums[1::2] = hat[:, 0].imag ** 4
    zt, zm = hat[:, 1:half], hat[:, partners]  # Z(t), Z(-t)
    np.conjugate(zm, out=zm)
    diff = np.subtract(zt, zm, out=scratch[:, : half - 1])
    # 2 |r_hat(t)|^4 = |Z(t) + conj Z(-t)|^4 / 8, and likewise for s.
    for j, z in enumerate((np.add(zt, zm, out=zt), diff)):
        sums[j::2] += _u2_sums(z, None if kept is None else kept[j::2]) / 8
    return sums


def gowers_accelerated(
    values: np.ndarray,
    d: int,
    field: PrimeField | None = None,
    work_cap: int = DEFAULT_WORK_CAP,
    *, twists: np.ndarray | None = None,
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
    The chunks of rows run through :func:`_in_chunks`, in batches.  Refuses
    non-finite values (``ValueError``) and any request whose estimated cost
    rows * p * 2^k + dft_rows * p * log2 p exceeds ``work_cap``: each of
    the rows = C((p+1)/2 + k - 1, k) rows is 2^k corner products, and each
    of the dft_rows = ceil(rows / 2) rows of a real table (rows of a
    complex one) one DFT.

    At d = 3 only, ``twists``, a writable float64 array of shape (p,), receives every
    E(a) = U_2(phi e(-a x^2/p)), read from the spectra (README Numerics); U_3 keeps its bits.
    """
    values = _finite_values(values, None if field is None else field.p, d)
    p = len(values)
    if twists is not None and (d != 3 or not isinstance(twists, np.ndarray) or twists.shape != (p,)
                               or twists.dtype != np.float64 or not twists.flags.writeable):
        raise ValueError(f"twists takes d = 3 and a writable float64 array of shape ({p},), got"
                         f" d = {d}, {getattr(twists, 'dtype', type(twists))} {np.shape(twists)}")
    if d == 1:
        _check_positive("work_cap", work_cap)
        return float(_u1_rows(values))
    k = d - 2
    real = not values.imag.any()

    def estimate():
        # 2^k first: it overflows from k = 1024 on, and below that the binomial has < 32k bits.
        corners = p * 2.0**k
        rows = math.comb((p + 1) // 2 + k - 1, k)  # see _orbits
        dft_rows = (rows + 1) // 2 if real else rows
        return rows * corners + dft_rows * p * max(1.0, math.log2(p))

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
    # Each chunk runs in batches of `batch` DFT rows (`pack` orbit rows to a DFT
    # row), the last one shorter: about _BATCH_VALUES values and 16 or more rows each.
    pack, per_chunk = (2, chunk // 2) if real else (1, chunk)
    batch = -(-per_chunk // max(1, min(per_chunk // 16, -(-per_chunk * p // _BATCH_VALUES))))
    if twists is not None:  # E(g^m) reads row h at t = -2h g^m = g^(log(-2h) + m)
        pw = field._powers()
        logs, column = np.argsort(pw), np.argsort(plan.freqs)  # log t at t - 1; t's column
        cycle, width = ((p - 1) // 2, (p - 1) // 2) if real else (p - 1, p)
        columns = column[pw[:cycle]]
        if real:  # the kept columns 1..(p-1)/2 hold t or -t, and |K(-t)| = |K(t)|
            columns = np.minimum(columns, column[p - pw[:cycle]]) - 1
        columns = np.tile(columns, 2)  # row h reads its cycle from log(-2h) on

    def buffers():
        # One batch's gather indices, one corner's factor, DFT rows (which collect the
        # corner products and then hold their spectra) and paired sums' scratch.  The
        # twist energies reuse all but the last once spent.
        return (np.empty((batch, p), np.int64), np.empty((batch, p), values.dtype),
                np.empty((batch, p), np.complex128),
                np.empty((batch, p // 2), np.complex128) if real else None)

    def batch_sums(start, stop, index, factor, hat, scratch):
        h = reps[start:stop]
        n = len(h)
        hat = hat[: (n + 1) // 2 if real else n]
        # Rows 2j and 2j + 1 of a real table are the real and imaginary
        # parts of DFT row j (an odd last row has 0 for Im), filled one part
        # at a time; a complex table's rows are the DFT rows.
        if real:
            parts = [(h[0::2], hat.real), (h[1::2], hat.imag[: n // 2])]
            hat.imag[n // 2 :] = 0.0
        else:
            parts = [(h, hat)]
        for hs, dest in parts:
            ix, fx = index[: len(hs)], factor[: len(hs)]
            for j, omega in enumerate(corners):
                np.add(((hs @ omega) % p)[:, None], plan.order, out=ix)
                np.take(doubled[omega.sum() % 2], ix, out=fx, mode="clip")
                np.multiply(fx, dest if j else first, out=dest)  # the first times phi (omega = 0)
        field._transform(hat)
        w, kept = weights[start:stop], None
        if twists is not None:  # |K_h(0)|^2 now; |K_h|^2 over the spent corner products
            zero = np.square(hat[:, :1].view(np.float64))
            zero = 4 * zero.ravel()[:n] if real else zero.sum(axis=1)  # real: |2 K_h|^2
            kept = np.ndarray((2 * len(hat) if real else n, width), buffer=factor)
        sums = (_paired_u2_sums(hat, scratch[: len(hat)], plan.partners, kept)[:n] if real
                else _u2_sums(hat, kept))
        if kept is None:
            return sums, 0.0
        # E(0): each h's t = 0.  E(g^m): h = 0's t = 0, and twice each other h's g^(log(-2h) + m).
        nz = np.flatnonzero(h[:, 0])
        at = np.ndarray((len(nz), cycle), np.int64, index)  # flat indices into kept
        for row, r, log in zip(at, nz.tolist(), (logs[-2 * h[nz, 0] % p - 1] % cycle).tolist()):
            np.add(columns[log : log + cycle], r * width, out=row)
        rolled = np.take(kept, at, out=np.ndarray(at.shape, buffer=hat), mode="clip")
        energy = np.concatenate([[w @ zero], 2 * rolled.sum(axis=0) + (0.0 if start else zero[0])])
        return sums, energy

    def chunk_sum(i, *bufs):  # U_d sums the chunk's rows in one product, whatever its batches
        start, stop = i * chunk, min(i * chunk + chunk, len(reps))
        sums, energies = zip(*(batch_sums(b, min(b + pack * batch, stop), *bufs)
                               for b in range(start, stop, pack * batch)))
        return float(weights[start:stop] @ np.concatenate(sums)), sum(energies)

    partial, energies = zip(*_in_chunks(-(-len(reps) // chunk), chunk_sum, buffers))
    if twists is not None:  # in chunk order; a real table's E(-a) = E(a)
        total = sum(energies) / (p * (4 if real else 1))
        twists[0], twists[pw] = total[0], np.resize(total[1:], p - 1)
    return _finalize(sum(partial) / p**k, _tolerance(p, d))


def gowers_norm(values: np.ndarray, d: int, field: PrimeField | None = None) -> float:
    """The norm itself, U_d^(1/2^d), via :func:`gowers_accelerated`."""
    return float(gowers_accelerated(values, d, field) ** (1.0 / 2**d))


def evaluate(table: TraceTable, d: int, work_cap: int = DEFAULT_WORK_CAP) -> float:
    """U_d of a trace table by :func:`gowers_accelerated`.

    Non-finite values are refused before anything runs.  When the family
    tracks its rank, the trivial bound U_d <= rank^(2^d) is asserted on
    the way out.
    """
    u_d = gowers_accelerated(_finite_values(table.values), d, table.field, work_cap)
    rank = table.descriptor.rank
    if rank >= 1:
        ceiling = rank ** (2**d) + 1e-6
        if u_d > ceiling:
            raise ArithmeticError(
                f"trivial bound violated: U_{d} = {u_d} > rank^(2^d) = {ceiling}"
            )
    return u_d
