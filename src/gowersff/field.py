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
:func:`_rader_route` says, Rader's.  :meth:`PrimeField.correlation`, U_2's
autocorrelation, pads two halves to a power of two; :meth:`PrimeField.dft`
sends one long, exactly Hermitian row (Kloosterman's) through Rader's
algorithm as two half-length real convolutions.  README Numerics derives all
three, and the chunk runner :func:`_in_chunks` that shares work between workers.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from typing import NamedTuple

import numpy as np

__all__ = [
    "is_prime",
    "PrimeField",
    "prime_field",
]

# Largest modulus for which int64 intermediate products x*y stay exact.
_MAX_P = 1 << 31


def is_prime(n: int) -> bool:
    """Primality by trial division up to isqrt(n): at most ~23k steps below 2^31."""
    return n == 2 or n > 2 and n % 2 == 1 and all(n % q for q in range(3, math.isqrt(n) + 1, 2))


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


#: Values per chunk of rows.  Each worker holds one chunk's rows and
#: spectra: larger chunks run no faster and only raise peak memory.  A
#: correlation's transforms take the second worker from this length on.
_CHUNK_VALUES = 1 << 17


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


#: The calling thread and at most one helper.
_WORKERS = min(_usable_cores(), 2)


def _in_chunks(n_chunks: int, work, buffers) -> list:
    """[work(i, *bufs) for i in range(n_chunks)], the chunks shared between workers.

    Chunk i goes to worker i % workers, with at most ``_WORKERS`` workers:
    the calling thread is worker 0 and the others are helper threads (one,
    when two cores are usable).  The calling thread makes each worker's
    arrays with ``buffers()`` before any helper starts, so they come from
    its own heap and are returned with it, and a worker passes the same
    arrays to every chunk it runs.  Results are stored by chunk index, so
    whatever the caller reduces them to does not depend on thread timing.
    An exception in any worker stops the others after their current chunk
    and is raised here.
    """
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


def _in_parts(length: int, work) -> None:
    """work(part) for each part of range(length), as a slice: two parts on two
    workers from _CHUNK_VALUES on, else one.  For elementwise work only."""
    parts = 2 if length >= _CHUNK_VALUES else 1
    ends = [length * i // parts for i in range(parts + 1)]
    _in_chunks(parts, lambda i: work(slice(ends[i], ends[i + 1])), tuple)


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
        if p >= _MAX_P:  # before the primality test, whose loop grows with sqrt(p)
            raise ValueError(f"p = {p} exceeds the supported range (< 2^31)")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2:
            raise ValueError("p = 2 is not supported; p must be odd")
        self.p = int(p)

        half = p // 2
        table = np.empty(p, dtype=np.complex128)
        _in_parts(half + 1, lambda a: np.exp(2j * np.pi * np.arange(a.start, a.stop) / p,
                                            out=table[a]))
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
        """(a/p) for 0 <= a < p, built from the squares x^2 = (-x)^2 mod p, 0 < x < p/2."""
        t = np.full(self.p, -1, dtype=np.int64)
        t[0] = 0
        sq = np.arange(1, (self.p + 1) // 2, dtype=np.int64)
        t[sq * sq % self.p] = 1
        t.setflags(write=False)
        return t

    @functools.cached_property
    def inverse_values(self) -> np.ndarray:
        """x^-1 for all x (0 mapped to 0), for bulk table generation."""
        pw = self._powers()
        inv = np.zeros(self.p, dtype=np.int64)
        inv[1] = 1  # and (g^k)^-1 = g^(p-1-k) for 0 < k < p - 1:
        _in_parts(self.p - 2, lambda k: np.put(inv, pw[1:][k], pw[:0:-1][k]))
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
        transform and is returned; by default a new array is.  A single
        row from p = _CHUNK_VALUES on that is exactly Hermitian,
        v[-x] == conj(v[x]), takes :meth:`_hermitian_dft`; every other
        input is numpy's prime-length FFT (Bluestein's algorithm).
        """
        v, h = self._vectors(v), self.p // 2
        if (v.ndim == 1 and self.p >= _CHUNK_VALUES and v[0].imag == 0
                and np.array_equal(v[1 : h + 1], np.conj(v[:h:-1]))):
            return self._hermitian_dft(v, out)
        return np.fft.fft(v, axis=-1, norm="forward", out=out)

    def _hermitian_dft(self, v: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        """:meth:`dft` of one Hermitian row by Rader's algorithm: a real spectrum.

        With h = (p - 1)/2, alpha(j) = v(g^-j) and beta(j) = e(-g^j/p) for
        0 <= j < h, the length p - 1 convolution folds to a cyclic one X of
        Re alpha with Re beta and a negacyclic one Y of Im alpha with Im beta,
        of length h: p dft(v)[g^r] = v(0) + 2(X(r) - Y(r)) and
        p dft(v)[-g^r] = v(0) + 2(X(r) + Y(r)).  Each is a linear
        convolution by rfft and irfft zero-padded to a power of two, one per
        worker (README Numerics).
        """
        p, h = self.p, (self.p - 1) // 2
        if out is not None and (out.shape != v.shape or out.dtype != np.complex128):
            raise ValueError(f"out must be complex128 of shape ({p},)")
        n = 1 << (2 * h - 2).bit_length()  # >= 2h - 1, the linear convolution's length
        pw = self._powers()
        alpha = v[np.concatenate([pw[:1], pw[:h:-1]])]
        beta = self.char_table[pw[h:]]  # e(g^(j + h)/p) = e(-g^j/p)
        v0, total = v[0].real, v.real.sum()
        folded = np.empty((2, h))

        def convolve(i, a, b):
            part = np.real if i == 0 else np.imag
            np.fft.rfft(part(alpha), n, out=a)
            np.fft.rfft(part(beta), n, out=b)
            a *= b
            lags = np.fft.irfft(a, n, out=b.view(np.float64)[:n])  # b is spent
            (np.add, np.subtract)[i](lags[:h], lags[h : 2 * h], out=folded[i])

        _in_chunks(2, convolve, lambda: np.empty((2, n // 2 + 1), np.complex128))
        del alpha, beta
        x, y = folded
        x += v0 / 2
        res = np.empty(p, np.complex128) if out is None else out
        res[0] = total / 2
        res[pw[:h]] = x - y
        res[pw[h:]] = x + y
        res *= 2.0 / p
        return res

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
        p = self.p
        pw = self._powers()
        order = np.concatenate([[0, 1], pw[:0:-1]])
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

    def correlation(self, v: np.ndarray) -> np.ndarray:
        """c(h) = sum_x v[x + h] conj(v[x]) for 0 <= h < p, the cyclic autocorrelation.

        v is split at m = (p + 1)/2 into halves zero-padded to a power of
        two n >= p.  With S the linear lags of |V1|^2 + |V2|^2 and X those
        of V2 conj V1, c(h) = S(h) + S(h - p) + X(h - m) + conj X(m - 1 - h).
        README Numerics says which transforms run on which worker.
        """
        p = self.p
        if np.shape(v) != (p,):
            raise ValueError(f"vector shape {np.shape(v)} != (p,) = ({p},)")
        m, n = (p + 1) // 2, 1 << (p - 1).bit_length()
        half, real = n // 2, np.isrealobj(v)
        # Job i runs on worker i % chunks; below _CHUNK_VALUES a helper
        # thread would cost more than it saves.
        chunks = 2 if n >= _CHUNK_VALUES else 1

        def transforms(*jobs):
            _in_chunks(chunks, lambda i: [job() for job in jobs[i::chunks]], tuple)

        def forward(u, out, b):
            """out = fft(u, n), its first half + 1 for a real u; given b, by real transforms."""
            if b is None:
                return (np.fft.rfft if real else np.fft.fft)(u, n, out=out)
            a, top = out[: half + 1], out[half + 1 :]
            np.fft.rfft(u.real, n, out=a)
            np.fft.rfft(u.imag, n, out=b)
            np.multiply(b, 1j, out=b)  # fft(u) = A + iB, and fft(u)(-t) = conj(A(t) - iB(t))
            np.conjugate(np.subtract(a[half - 1 : 0 : -1], b[half - 1 : 0 : -1], out=top), out=top)
            return np.add(a, b, out=a)

        halves = [v[:m], v[m:]]
        spectra = [np.empty(half + 1 if real else n, np.complex128) for _ in halves]
        # The helper runs real transforms only (README Numerics).
        scratch = [None if real or i % chunks == 0 else np.empty(half + 1, np.complex128)
                   for i in range(len(halves))]
        transforms(*(functools.partial(forward, *job) for job in zip(halves, spectra, scratch)))
        del scratch
        cross = np.conj(spectra[0])
        cross *= spectra[1]
        # |V1|^2 + |V2|^2 in V1's real parts, squared in place; a real v
        # hands all of V1 to irfft, so its imaginary parts are zeroed.
        a, b = (np.square(u.view(np.float64), out=u.view(np.float64)) for u in spectra)
        a += b
        a[0::2] += a[1::2]
        a[1::2] = 0.0
        same = spectra[0] if real else a[0::2]
        del a, b, spectra
        if real:
            lags = [np.empty(n), np.empty(n)]
            transforms(*(functools.partial(np.fft.irfft, z, n, out=out)
                         for z, out in zip((same, cross), lags)))
            c = np.concatenate([lags[0][:m], lags[0][n - m + 1 :]])
        else:  # S is the conjugate of the real |V1|^2 + |V2|^2's forward transform
            lags = [np.empty(half + 1, np.complex128), cross]
            transforms(functools.partial(np.fft.ifft, cross, out=cross),
                       functools.partial(np.fft.rfft, same, norm="forward", out=lags[0]))
            c = np.concatenate([lags[0][:m], lags[0][m - 1 : 0 : -1]])
            np.conjugate(c[:m], out=c[:m])
        del same, cross
        x = lags[1]
        c[1:m] += x[n - m + 1 :]  # X(h - m), 0 < h < p
        c[m:] += x[: m - 1]
        np.conjugate(x, out=x)  # conj X(m - 1 - h)
        c[1:m] += x[m - 2 :: -1]
        c[m:] += x[: n - m : -1]
        return c

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
