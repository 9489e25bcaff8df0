"""Exact arithmetic in F_p and the numeric primitives built on it.

A :class:`PrimeField` owns the per-prime tables the rest of the library
reads: the additive characters e(a/p), the quadratic residues, the
inverses and the powers of a primitive root.  They are immutable once
built, so fields are safe to share across threads.

The DFT convention used throughout is

    dft(v)[t] = (1/p) * sum_x v[x] * e(-x*t/p),

so a pure phase e(c*x/p) transforms to the indicator of t = c.
:meth:`PrimeField.dft_direct` is its O(p^2) test oracle.  Batched rows
take :meth:`PrimeField._transform`, on numpy's route or, where
:func:`_rader_route` says, Rader's; :meth:`PrimeField.correlation` pads
to a power of two.  README Numerics derives both.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = [
    "is_prime",
    "PrimeField",
    "prime_field",
]

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24
# (covers every 64-bit input).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest modulus for which int64 intermediate products x*y stay exact.
_MAX_P = 1 << 31


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _finite_values(values, p: int | None = None, d: int = 1) -> np.ndarray:
    """values as complex128: one-dimensional, of length p if p is given, and finite; d >= 1."""
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 1 or p not in (None, len(values)):
        want = "(p,)" if p is None else f"(p,) = ({p},)"
        raise ValueError(f"values must have shape {want}, got {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    if d < 1:
        raise ValueError("d must be >= 1")
    return values


#: Rader's route: p - 1 at most 13-smooth and p at least 40.  Measured on
#: the orbit kernel (2 cores, numpy 2.4.6): 13-smooth p - 1 won 1.07-1.8x
#: from p = 41 to 8009, larger factors gained at most 1.13x or lost (8017:
#: 0.52x), and below p = 40 neither route won.
_RADER_SMOOTH = 13
_RADER_FLOOR = 40


def _rader_route(p: int) -> bool:
    """Whether the orbit kernel transforms length-p rows by Rader's algorithm."""
    return p >= _RADER_FLOOR and max(_factor(p - 1)) <= _RADER_SMOOTH


def _factor(n: int) -> list[int]:
    """Distinct prime factors by trial division (desk-scale n only)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


class _Plan(NamedTuple):
    """How rows are laid out for :meth:`PrimeField._transform`, and where their spectra land."""

    #: Column j of a row holds the value at x = order[j]; order[0] = 0.
    order: np.ndarray
    #: Column j of a spectrum holds t = freqs[j]; freqs[0] = 0.
    freqs: np.ndarray
    #: hat[:, partners] holds hat(-t) for the t of hat[:, 1:(p + 1) // 2].
    partners: slice
    #: Rader's spectrum of b(m) = e(-g^m/p)/p; None on numpy's own route.
    spectrum: np.ndarray | None


class PrimeField:
    """The field F_p = Z/pZ for an odd prime p, with precomputed tables.

    The additive character table is built once per field so that every
    module reads bit-identical floats for e(a/p).  It is constructed to be
    exactly conjugate-symmetric: char_table[p - a] == conj(char_table[a]).

    Parameters
    ----------
    p : odd prime modulus (3 <= p < 2^31).
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2:
            raise ValueError("p = 2 is not supported; p must be odd")
        if p >= _MAX_P:
            raise ValueError(f"p = {p} exceeds the supported range (< 2^31)")
        self.p = int(p)

        half = p // 2
        table = np.empty(p, dtype=np.complex128)
        table[: half + 1] = np.exp(2j * np.pi * np.arange(half + 1) / p)
        table[half + 1 :] = np.conj(table[1 : half + 1][::-1])
        table.setflags(write=False)
        #: e(a/p) for 0 <= a < p; single source of character values.
        self.char_table = table

    # -- basic arithmetic ------------------------------------------------

    def inverse(self, a: int) -> int:
        """Multiplicative inverse of a mod p; a must be nonzero mod p."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return pow(a, self.p - 2, self.p)

    @functools.cached_property
    def primitive_root(self) -> int:
        """Smallest generator g of the cyclic group F_p^x."""
        p = self.p
        factors = _factor(p - 1)
        for g in range(2, p):
            if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
                return g
        raise AssertionError("no primitive root found")  # unreachable for prime p

    def _powers(self) -> np.ndarray:
        """g^k mod p for 0 <= k < p - 1, g the primitive root; not cached.

        Built by doubling, pw[m:2m] = pw[:m] * g^m mod p, exact in int64
        since p < 2^31.
        """
        p, g, n = self.p, self.primitive_root, self.p - 1
        pw = np.ones(n, dtype=np.int64)
        m = 1
        while m < n:  # in place: no temporaries
            step = pw[m : 2 * m]
            np.multiply(pw[: len(step)], pow(g, m, p), out=step)
            step %= p
            m *= 2
        return pw

    @functools.cached_property
    def legendre_table(self) -> np.ndarray:
        """(a/p) for 0 <= a < p, built by enumerating the squares mod p."""
        t = np.full(self.p, -1, dtype=np.int64)
        t[0] = 0
        sq = np.arange(1, self.p, dtype=np.int64)
        t[(sq * sq) % self.p] = 1
        t.setflags(write=False)
        return t

    @functools.cached_property
    def inverse_values(self) -> np.ndarray:
        """x^-1 for all x (0 mapped to 0), for bulk table generation."""
        n = self.p - 1
        pw = self._powers()
        inv = np.zeros(self.p, dtype=np.int64)
        inv[pw] = pw[-np.arange(n) % n]  # (g^k)^-1 = g^(n-k)
        inv.setflags(write=False)
        return inv

    # -- prime-length DFT ------------------------------------------------

    def _vectors(self, v: np.ndarray) -> np.ndarray:
        """v as complex128 of shape (..., p); ValueError on another length."""
        v = np.asarray(v, dtype=np.complex128)
        if v.shape[-1] != self.p:
            raise ValueError(f"vector length {v.shape[-1]} != p = {self.p}")
        return v

    def dft(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Normalized DFT along the last axis: (1/p) sum_x v[x] e(-xt/p).

        O(p log p) for any p; accepts batched input of shape (..., p).
        ``out``, a complex128 array of the same shape, receives the
        transform and is returned; by default a new array is.
        """
        return np.fft.fft(self._vectors(v), axis=-1, norm="forward", out=out)

    @functools.cached_property
    def _plan(self) -> _Plan:
        """The route of this field's batched transforms: Rader's where :func:`_rader_route` says."""
        if _rader_route(self.p):
            plan = self._rader_plan()
        else:
            natural = np.arange(self.p)
            plan = _Plan(natural, natural, slice(None, self.p // 2, -1), None)
        for table in (plan.order, plan.freqs, plan.spectrum):
            if table is not None:
                table.setflags(write=False)
        return plan

    def _rader_plan(self) -> _Plan:
        """Rader's layout: x in [0, g^0, g^-1, ..., g^-(p-2)], t in [0, g^0, g^1, ..., g^(p-2)]."""
        p, n = self.p, self.p - 1
        pw = self._powers()
        order = np.concatenate([[0], pw[-np.arange(n) % n]])
        spectrum = np.fft.fft(np.conj(self.char_table[pw]) / p)
        return _Plan(order, np.concatenate([[0], pw]), slice((p + 1) // 2, None), spectrum)

    def _transform(self, rows: np.ndarray) -> np.ndarray:
        """The spectra of rows laid out in ``_plan.order``, in place, in ``_plan.freqs`` order.

        On numpy's route this is :meth:`dft`; on Rader's, three passes of
        length p - 1 over rows[:, 1:] (README Numerics).
        """
        spectrum = self._plan.spectrum
        if spectrum is None:
            return self.dft(rows, out=rows)
        x0 = rows[:, 0].copy()
        body = rows[:, 1:]
        np.fft.fft(body, axis=-1, out=body)
        rows[:, 0] = (x0 + body[:, 0]) / self.p
        body[:, 0] -= (self.p - 1) * x0
        body *= spectrum
        np.fft.ifft(body, axis=-1, out=body)
        return rows

    def correlation(self, v: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
        """c(h) = sum_x v[x + h] conj(w[x]) for 0 <= h < p; w = v by default.

        FFTs zero-padded to a power of two n >= 2p - 1 give the linear lags
        r(h), |h| < p, and c(h) = r(h) + r(h - p).  A given w must be real,
        as v then is.
        """
        p = self.p
        for u in (v,) if w is None else (v, w):
            if np.shape(u) != (p,):
                raise ValueError(f"vector shape {np.shape(u)} != (p,) = ({p},)")
        n = 1 << (2 * p - 2).bit_length()
        if w is not None:
            if not (np.isrealobj(v) and np.isrealobj(w)):
                raise ValueError("a cross-correlation takes real vectors")
            spectrum = np.fft.rfft(v, n)
            spectrum *= np.conj(np.fft.rfft(w, n))
            r = np.fft.irfft(spectrum, n)
            return r[:p] + r[n - p :]
        real = np.isrealobj(v)
        parts = (np.fft.rfft(v, n) if real else np.fft.fft(v, n)).view(np.float64)
        np.square(parts, out=parts)  # re^2, im^2 interleaved
        power = parts[0::2] + parts[1::2]
        del parts  # drop the spectrum before the second transform
        if real:
            r = np.fft.irfft(power, n)
            return r[:p] + r[p:0:-1]
        r = np.fft.rfft(power, norm="forward")
        return np.conj(r[:p]) + r[p:0:-1]

    def dft_direct(self, v: np.ndarray) -> np.ndarray:
        """O(p^2) reference DFT from the character table (testing only)."""
        v = self._vectors(v)
        t = np.arange(self.p, dtype=np.int64)
        kernel = np.conj(self.char_table[np.outer(t, t) % self.p])
        return v @ kernel.T / self.p

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"


@functools.lru_cache(maxsize=64)
def prime_field(p: int) -> PrimeField:
    """Shared, cached PrimeField instance for p (fields are immutable)."""
    return PrimeField(p)
