"""Generators for the algebraic trace-function families over F_p.

Each generator returns a :class:`TraceTable`: the length-p vector of
complex values together with a :class:`FamilyDescriptor` carrying the
family's declared invariants (rank, singular set, Swan data, conductor).
Conductors follow the rule

    conductor = rank + sum over singular points (incl. infinity) of
                max(1, swan at the point),

with the per-family rank/Swan data declared as metadata rather than
derived: the families are defined here by their closed-form values.

Families:

* ``legendre_poly_trace``  -- x -> (f(x)/p), the Legendre symbol of a
  squarefree-up-to-units polynomial.
* ``inverse_phase_trace``  -- x -> e(inv(x)/p), 0 at x = 0.
* ``kloosterman_trace``    -- x -> S(x,1;p)/sqrt(p), the normalized
  Kloosterman sums, with value -1/sqrt(p) at x = 0.
* ``legendre_curve_trace`` -- x -> (p - N(x))/sqrt(p) for the affine
  point counts N(x) of v^2 = u(u-1)(u-x), value 1/sqrt(p) at x in {0,1}.
* ``mixed_ask_trace``      -- x -> e(f1(x)/p) * chi(f2(x)) on its domain.
* ``fourier_trace``        -- the normalized finite-field Fourier
  transform t -> -(1/sqrt(p)) sum_x v(x) e(tx/p).

The O(p^2) test oracles ``kloosterman_direct`` and
``legendre_curve_point_count`` return bare arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .field import PrimeField, _finite_values, _in_parts
from . import polys
from .polys import RationalFunction

__all__ = [
    "INFINITY",
    "FamilyDescriptor",
    "FIXED_FAMILIES",
    "TraceTable",
    "MultiplicativeCharacter",
    "legendre_poly_trace",
    "inverse_phase_trace",
    "kloosterman_trace",
    "kloosterman_direct",
    "legendre_curve_trace",
    "legendre_curve_integers",
    "legendre_curve_point_count",
    "mixed_ask_trace",
    "fourier_trace",
    "exceptional_set",
    "conductor_bound_xi",
]

#: Key used for the point at infinity in Swan-conductor maps.
INFINITY = "inf"

_POINTWISE_SLACK = 1e-12

#: Largest distance from an integer a rounded point count may have.
_INTEGER_SLACK = 0.25


@dataclass(frozen=True)
class FamilyDescriptor:
    """Identity and declared sheaf-style metadata of a trace family.

    ``swan`` maps every singular point (affine ints, plus ``INFINITY``)
    to its Swan conductor; tame points carry 0 but still count toward
    the conductor.  It is stored read-only, since tables share
    descriptors, and compares equal to the dict given.  ``rank = 0``
    marks an untracked family (Fourier transforms), whose conductor is
    reported as 0.
    """

    family: str
    label: str
    rank: int
    swan: Mapping[int | str, int]
    conductor: int = dataclass_field(init=False)
    singular_set: frozenset[int] = dataclass_field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "swan", MappingProxyType(dict(self.swan)))
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        for pt, s in self.swan.items():
            if s < 0:
                raise ValueError(f"negative Swan conductor at {pt}")
        cond = self.rank + sum(max(1, s) for s in self.swan.values()) if self.rank else 0
        object.__setattr__(self, "conductor", cond)
        object.__setattr__(
            self,
            "singular_set",
            frozenset(pt for pt in self.swan if pt != INFINITY),
        )


#: The families that take no arguments, each with the one descriptor all its tables share.
FIXED_FAMILIES = {desc.family: desc for desc in (
    FamilyDescriptor("inverse_phase", "inverse_phase", rank=1, swan={0: 1, INFINITY: 0}),
    FamilyDescriptor("kloosterman", "kloosterman", rank=2, swan={0: 0, INFINITY: 1}),
    FamilyDescriptor("legendre_curve", "legendre_curve", rank=2, swan={0: 0, 1: 0, INFINITY: 0}),
)}


@dataclass(frozen=True)
class TraceTable:
    """A trace function sampled on all of F_p, with its family metadata."""

    field: PrimeField
    values: np.ndarray
    descriptor: FamilyDescriptor

    def __post_init__(self):
        v = _finite_values(self.values, self.field.p).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        r = self.descriptor.rank
        if r >= 1:
            peak = float(np.abs(v).max())
            if peak > r + _POINTWISE_SLACK:
                raise ValueError(
                    f"pointwise bound violated: max |value| = {peak} > rank = {r}"
                )

    @property
    def p(self) -> int:
        return self.field.p


class MultiplicativeCharacter:
    """chi with chi(g^k) = e(m*k/(p-1)) for the primitive root g; chi(0) = 0."""

    def __init__(self, field: PrimeField, index: int):
        self.field = field
        self.index = index % (field.p - 1)

    @property
    def order(self) -> int:
        return (self.field.p - 1) // math.gcd(self.index, self.field.p - 1)

    def values(self) -> np.ndarray:
        """chi(x) for all x in F_p, scattered over the powers of g.

        chi(g^k) = e(k*(m/c)/order) with c = gcd(m, p-1), so only the
        order-th roots of unity are evaluated.
        """
        n, order = self.field.p - 1, self.order
        step = self.index // (n // order)
        roots = np.exp(2j * np.pi * np.arange(order) / order)
        out = np.zeros(self.field.p, dtype=np.complex128)
        pw, chi = self.field._powers(), np.tile(roots[np.arange(order) * step % order], n // order)
        _in_parts(n, lambda k: np.put(out, pw[k], chi[k]))
        return out


# -- family generators -----------------------------------------------------


def legendre_poly_trace(f_coeffs, field: PrimeField) -> TraceTable:
    """x -> (f(x)/p) for integer f of degree >= 1.

    Rejects reductions where f mod p is a unit times a perfect square
    (including constants and the zero polynomial): the character sum is
    degenerate there.  Affine singularities are the roots of f in F_p,
    found by exhaustive evaluation; the family is tame with the point at
    infinity always counted.
    """
    p = field.p
    f = polys.normalize(f_coeffs, p)
    if not f or polys.degree(f) < 1 or polys.is_square_times_unit(f, p):
        raise ValueError(
            "square-degenerate reduction: f mod p is a unit times a perfect square"
        )
    f_vals = polys.poly_eval_all(f, p)
    values = field.legendre_table[f_vals].astype(np.complex128)
    roots = [int(r) for r in np.nonzero(f_vals == 0)[0]]
    swan = {r: 0 for r in roots}
    swan[INFINITY] = 0
    desc = FamilyDescriptor(
        family="legendre_poly",
        label="legendre_poly(" + ",".join(str(c) for c in f) + ")",
        rank=1,
        swan=swan,
    )
    return TraceTable(field, values, desc)


def inverse_phase_trace(field: PrimeField) -> TraceTable:
    """x -> e(inv(x)/p) for x != 0, and 0 at x = 0."""
    p = field.p
    values = np.zeros(p, dtype=np.complex128)
    np.take(field.char_table, field.inverse_values[1:], out=values[1:])
    return TraceTable(field, values, FIXED_FAMILIES["inverse_phase"])


def kloosterman_trace(field: PrimeField) -> TraceTable:
    """x -> S(x,1;p)/sqrt(p) with S(x,1;p) = sum_{y!=0} e((xy + inv(y))/p).

    All p values come from one DFT of y -> e(inv(y)/p) in O(p log p).
    The value at x = 0 is -1/sqrt(p) (which the complete sum also gives).
    """
    p = field.p
    sqrt_p = np.sqrt(p)
    w = inverse_phase_trace(field).values.copy()  # writable: the DFT runs in place
    # S(x,1;p) = sum_y w(y) e(+xy/p) = p * dft(w)[-x mod p]
    hat = field.dft(w, out=w)
    values = np.concatenate([hat[:1], hat[:0:-1]])
    values *= p
    values /= sqrt_p
    # y -> -y conjugates S(x,1;p), so it is real: drop the transform's rounding.
    values.imag = 0.0
    values[0] = -1.0 / sqrt_p
    return TraceTable(field, values, FIXED_FAMILIES["kloosterman"])


def kloosterman_direct(field: PrimeField) -> np.ndarray:
    """Test oracle for :func:`kloosterman_trace`: the double sum in O(p^2), x = 0 included."""
    p = field.p
    values = np.empty(p, dtype=np.complex128)
    y = np.arange(1, p, dtype=np.int64)
    inv_y = field.inverse_values[1:]
    chunk = max(1, (1 << 21) // p)
    for start in range(0, p, chunk):
        x = np.arange(start, min(start + chunk, p), dtype=np.int64)
        exponents = (x[:, None] * y[None, :] + inv_y[None, :]) % p
        values[start : start + len(x)] = field.char_table[exponents].sum(axis=1)
    return values / np.sqrt(p)


def legendre_curve_integers(field: PrimeField) -> np.ndarray:
    """The integers p - N(x), N(x) = |{(u,v): v^2 = u(u-1)(u-x)}|, for all x.

    Evaluates p - N(x) = -sum_u ((u(u-1))/p) ((u-x)/p) as one cyclic
    correlation in O(p log p), from real transforms zero-padded to
    n = 2^ceil(log2(2p - 1)), and rounds it.  Entries at x in {0, 1} use
    the same formula even though the trace table overrides them.
    """
    p = field.p
    leg = field.legendre_table
    u = np.arange(p, dtype=np.int64)
    a = leg[u * ((u - 1) % p) % p]
    n = 1 << (2 * p - 2).bit_length()
    lags = np.fft.irfft(np.fft.rfft(a, n) * np.conj(np.fft.rfft(leg, n)), n)
    corr = -(lags[:p] + np.concatenate([[0.0], lags[n - p + 1 :]]))
    counts = np.rint(corr)
    # Rounding to the nearest integer is exact only if the transform
    # error stays far below 1/2 (it measures ~3e-12 at p ~ 10^6).
    if not np.abs(corr - counts).max() <= _INTEGER_SLACK:
        raise ArithmeticError(f"legendre_curve correlation is not integral at p = {p}")
    return counts.astype(np.int64)


def legendre_curve_point_count(field: PrimeField) -> np.ndarray:
    """Test oracle for :func:`legendre_curve_integers`: 1 + (c/p) fiber sizes in O(p^2)."""
    p = field.p
    leg = field.legendre_table
    x = np.arange(p, dtype=np.int64)
    counts = np.zeros(p, dtype=np.int64)
    chunk = max(1, (1 << 21) // p)
    for start in range(0, p, chunk):
        u = np.arange(start, min(start + chunk, p), dtype=np.int64)
        cubic = (u * ((u - 1) % p))[:, None] % p
        cubic = cubic * ((u[:, None] - x[None, :]) % p) % p
        counts += (1 + leg[cubic]).sum(axis=0)
    return p - counts


def legendre_curve_trace(field: PrimeField) -> TraceTable:
    """x -> (p - N(x))/sqrt(p) off {0, 1}; both cells there are 1/sqrt(p)."""
    p = field.p
    if p < 5:
        raise ValueError("legendre_curve requires p >= 5")
    integers = legendre_curve_integers(field)
    values = integers.astype(np.complex128) / np.sqrt(p)
    values[0] = values[1] = 1.0 / np.sqrt(p)
    return TraceTable(field, values, FIXED_FAMILIES["legendre_curve"])


def mixed_ask_trace(f1, f2, chi: MultiplicativeCharacter, field: PrimeField) -> TraceTable:
    """x -> e(f1(x)/p) * chi(f2(x)) on the domain U, 0 outside.

    U excludes poles of f1 and f2 and zeros of f2.  Swan conductors sit
    at the poles of f1 with the pole order as the declared value; every
    other point of the complement of U (and the point at infinity) is
    tame.  f1 and f2 may be RationalFunction or (num, den) coefficient
    pairs.
    """
    f1, f2 = (f if isinstance(f, RationalFunction) else RationalFunction(*f, field)
              for f in (f1, f2))
    if f2.is_zero:
        raise ValueError("f2 is identically zero")

    f1_vals, f1_def = f1.eval_all()
    f2_vals, f2_def = f2.eval_all()
    domain = f1_def & f2_def & (f2_vals != 0)

    chi_vals = chi.values()
    values = np.where(domain, field.char_table[f1_vals] * chi_vals[f2_vals], 0j)

    poles = f1.poles()
    swan: dict[int | str, int] = {
        int(x): poles.get(int(x), 0) for x in np.nonzero(~domain)[0]
    }
    swan[INFINITY] = f1.pole_order_at_infinity()

    def fmt(r: RationalFunction) -> str:
        num = ",".join(str(c) for c in r.num) or "0"
        den = ",".join(str(c) for c in r.den)
        return num if r.den == (1,) else f"({num})/({den})"

    desc = FamilyDescriptor(
        family="mixed_ask",
        label=f"mixed_ask(f1={fmt(f1)};f2={fmt(f2)};chi={chi.index})",
        rank=1,
        swan=swan,
    )
    return TraceTable(field, values, desc)


def fourier_trace(table: TraceTable) -> TraceTable:
    """t -> -(1/sqrt(p)) sum_x v(x) e(tx/p) = -sqrt(p) dft(v)[-t]; metadata untracked.

    Applying the transform twice returns the reflection x -> v(-x).
    """
    field = table.field
    out = -np.sqrt(field.p) * field.dft(table.values)[-np.arange(field.p) % field.p]
    desc = FamilyDescriptor(
        family="fourier_of",
        label=f"fourier_of({table.descriptor.label})",
        rank=0,
        swan={},
    )
    return TraceTable(field, out, desc)


def exceptional_set(points, p: int) -> set[int]:
    """Nonzero pairwise differences of a singular set S.

    These are the shifts h for which S meets S - h, i.e. where the
    difference construction degrades; |E| <= |S| (|S| - 1).
    """
    pts = [int(s) % p for s in points]
    return {(a - b) % p for a in pts for b in pts if (a - b) % p != 0}


def conductor_bound_xi(c: int) -> int:
    """Conductor bound 5*c^2 for the multiplicative difference of a sheaf."""
    if c < 1:
        raise ValueError("conductor must be >= 1")
    return 5 * c * c
