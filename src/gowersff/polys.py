"""Small-degree polynomial and rational-function arithmetic over F_p.

Coefficient vectors are ascending (index i holds the X^i coefficient),
stored as plain Python ints reduced mod p.  Degrees stay desk-scale, so
everything here is straightforward O(deg^2) arithmetic.
"""

from __future__ import annotations

import numpy as np

from .field import PrimeField

__all__ = [
    "normalize",
    "degree",
    "poly_eval",
    "poly_eval_all",
    "poly_gcd",
    "is_square_times_unit",
    "RationalFunction",
]

Coeffs = tuple[int, ...]


def normalize(coeffs, p: int) -> Coeffs:
    """Reduce mod p and strip trailing zeros; () is the zero polynomial."""
    c = [int(x) % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(coeffs: Coeffs) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(coeffs) - 1


def poly_eval(coeffs: Coeffs, x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def poly_eval_all(coeffs: Coeffs, p: int) -> np.ndarray:
    """Horner evaluation at every x in F_p at once (int64, exact for p < 2^31)."""
    x = np.arange(p, dtype=np.int64)
    acc = np.full(p, coeffs[-1] % p if coeffs else 0, dtype=np.int64)
    for c in reversed(coeffs[:-1]):  # in place: no temporaries
        acc *= x
        acc += c
        acc %= p
    return acc


def _monic(coeffs: Coeffs, p: int) -> Coeffs:
    if not coeffs:
        return coeffs
    lead_inv = pow(coeffs[-1], p - 2, p)
    return tuple(c * lead_inv % p for c in coeffs)


def poly_divmod(a: Coeffs, b: Coeffs, p: int) -> tuple[Coeffs, Coeffs]:
    b = normalize(b, p)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(normalize(a, p))
    db, lead_inv = degree(b), pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * lead_inv % p
        shift = len(a) - 1 - db
        q[shift] = c
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bc) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return normalize(q, p), tuple(a)


def poly_gcd(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    """Monic gcd by the Euclidean algorithm."""
    a, b = normalize(a, p), normalize(b, p)
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    return _monic(a, p)


def _poly_mul(a: Coeffs, b: Coeffs, p: int) -> Coeffs:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return normalize(out, p)


def is_square_times_unit(coeffs: Coeffs, p: int) -> bool:
    """True when f mod p is a nonzero constant times a perfect square.

    Made monic, such an f is g^2 for one monic g of degree m = deg(f)/2.
    Since p is odd, g's coefficients follow from the top half of f's, top
    down: f_{m+k} = 2 g_k + sum_{i=k+1}^{m-1} g_i g_{m+k-i}.  Squaring g
    checks the rest of f, and fails on an odd degree.
    """
    f = _monic(normalize(coeffs, p), p)
    if not f:
        return False  # the zero polynomial is treated separately by callers
    m, half = degree(f) // 2, (p + 1) // 2
    g = [0] * m + [1]
    for k in range(m - 1, -1, -1):
        g[k] = (f[m + k] - sum(g[i] * g[m + k - i] for i in range(k + 1, m))) * half % p
    return _poly_mul(g, g, p) == f


class RationalFunction:
    """f = num/den over F_p, reduced to lowest terms.

    Evaluation is vectorized over all of F_p; poles are flagged as
    undefined rather than evaluated.
    """

    def __init__(self, num, den, field: PrimeField):
        p = field.p
        self.field = field
        num, den = normalize(num, p), normalize(den, p)
        if not den:
            raise ZeroDivisionError("denominator is identically zero")
        g = poly_gcd(num, den, p) if num else (1,)
        if degree(g) > 0:
            num, _ = poly_divmod(num, g, p)
            den, _ = poly_divmod(den, g, p)
        self.num: Coeffs = num
        self.den: Coeffs = den

    @property
    def is_zero(self) -> bool:
        return not self.num

    def eval_all(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, defined) with values[x] = f(x) where defined."""
        p = self.field.p
        num_vals = poly_eval_all(self.num, p)
        if self.den == (1,):
            return num_vals, np.ones(p, dtype=bool)
        den_vals = poly_eval_all(self.den, p)
        defined = den_vals != 0
        inv = self.field.inverse_values
        vals = num_vals * inv[den_vals] % p
        vals[~defined] = 0
        return vals, defined
