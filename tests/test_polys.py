import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gowersff.field import PrimeField, prime_field
from gowersff import polys
from gowersff.polys import (
    RationalFunction,
    degree,
    is_square_times_unit,
    normalize,
    poly_divmod,
    poly_eval,
    poly_eval_all,
    poly_gcd,
)


def test_normalize_strips_and_reduces():
    assert normalize((7, 8, 14), 7) == (0, 1)
    assert normalize((7, 14), 7) == ()
    assert degree(()) == -1


def test_poly_eval_all_matches_scalar():
    f = (1, 2, 0, 3)
    vals = poly_eval_all(f, 13)
    for x in range(13):
        assert vals[x] == poly_eval(f, x, 13)


@pytest.mark.parametrize("f", [(-5, 20, -1), (-5,), (40,), ()])
def test_poly_eval_all_reduces_unreduced_coefficients(f):
    vals = poly_eval_all(f, 13)
    assert [int(v) for v in vals] == [poly_eval(f, x, 13) for x in range(13)]


def test_poly_gcd_basic():
    p = 11
    # (X-1)(X-2) and (X-1)(X-3) share X-1
    a = normalize((2, -3, 1), p)
    b = normalize((3, -4, 1), p)
    assert poly_gcd(a, b, p) == normalize((-1, 1), p)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=6),
    st.lists(st.integers(0, 30), min_size=1, max_size=4),
)
def test_divmod_roundtrip(a, b):
    # Raw inputs: coefficients past p - 1, and trailing zeros.
    p = 11
    if not normalize(b, p):
        return
    q, r = poly_divmod(tuple(a), tuple(b), p)
    assert r == normalize(r, p)
    assert degree(r) < degree(normalize(b, p))
    recomposed = list(polys._poly_mul(q, normalize(b, p), p))
    recomposed += [0] * (max(len(a), len(r)) - len(recomposed))
    for i, c in enumerate(r):
        recomposed[i] = (recomposed[i] + c) % p
    assert normalize(recomposed, p) == normalize(a, p)


def test_divmod_by_zero_refused():
    with pytest.raises(ZeroDivisionError):
        poly_divmod((1, 2), (), 7)


def test_divmod_by_zero_with_trailing_zeros_refused():
    with pytest.raises(ZeroDivisionError):
        poly_divmod((1, 2), (0, 0), 7)


@pytest.mark.parametrize("a, b, expected", [
    ((1, 2, 3), (3, 1, 0), ((0, 3), (1,))),  # 1 + 2x + 3x^2 = 3x (3 + x) + 1 over F_7
    ((8,), (1, 1), ((), (1,))),
], ids=["trailing_zero_in_b", "unreduced_a"])
def test_divmod_normalizes_its_inputs(a, b, expected):
    assert poly_divmod(a, b, 7) == expected


class TestSquareDetection:
    def test_squares_detected(self):
        assert is_square_times_unit((0, 0, 1), 7)       # X^2
        assert is_square_times_unit((0, 0, 4), 7)       # 4X^2
        assert is_square_times_unit((1, 2, 1), 7)       # (X+1)^2
        assert is_square_times_unit((5,), 7)            # constants
        sq = polys._poly_mul((0, 0, 1), (1, 2, 1), 11)  # (X(X+1))^2
        assert is_square_times_unit(sq, 11)

    def test_non_squares_pass(self):
        assert not is_square_times_unit((0, 1), 7)          # X
        assert not is_square_times_unit((0, 0, 0, 1), 7)    # X^3
        assert not is_square_times_unit((1, 0, 1), 5)       # X^2+1 over F_5
        assert not is_square_times_unit((1, 1, 0, 1), 101)  # X^3+X+1
        assert not is_square_times_unit((0, 0), 7)          # the zero polynomial

    @pytest.mark.parametrize("p", [5, 7, 101])
    def test_plain_cases(self, p):
        assert not is_square_times_unit((0, 1), p)          # X
        assert is_square_times_unit((0, 0, 1), p)           # X^2
        assert not is_square_times_unit((0, 0, 0, 1), p)    # X^3
        sq = polys._poly_mul((0, 0, 1), (1, 2, 1), p)       # (X(X+1))^2
        assert is_square_times_unit(sq, p)
        f = polys._poly_mul((0, 0, 1), polys._poly_mul((1, 1), (1, 2, 1), p), p)
        assert not is_square_times_unit(f, p)               # X^2 (X+1)^3

    def test_char_p_wrinkles(self):
        # f' = 0: X^5 over F_5 is X (X^2)^2, and its square is a square
        x5 = (0, 0, 0, 0, 0, 1)
        assert not is_square_times_unit(x5, 5)
        assert is_square_times_unit(polys._poly_mul(x5, x5, 5), 5)
        # X^3 (X+1) over F_3, whose derivative X^3 misses the factor X + 1
        f = polys._poly_mul((0, 0, 0, 1), (1, 1), 3)
        assert not is_square_times_unit(f, 3)
        assert is_square_times_unit(polys._poly_mul(f, f, 3), 3)

    @pytest.mark.parametrize("p, max_degree", [(3, 6), (5, 4), (7, 4)])
    def test_monic_squares_exactly(self, p, max_degree):
        def monic(deg):
            return (tail + (1,) for tail in itertools.product(range(p), repeat=deg))

        squares = {polys._poly_mul(g, g, p)
                   for deg in range(max_degree // 2 + 1) for g in monic(deg)}
        for deg in range(max_degree + 1):
            for f in monic(deg):
                assert is_square_times_unit(f, p) == (f in squares), f


class TestRationalFunction:
    def test_reduction_to_lowest_terms(self):
        F = prime_field(11)
        # (X^2 - 1)/(X - 1) reduces to X + 1
        r = RationalFunction((-1, 0, 1), (-1, 1), F)
        assert r.num == normalize((1, 1), 11)
        assert r.den == (1,)

    def test_pole_at_infinity(self):
        F = prime_field(11)
        r = RationalFunction((0, 0, 0, 1), (1,), F)  # X^3: its one pole is at infinity
        assert (r.num, r.den) == ((0, 0, 0, 1), (1,))
        vals, defined = r.eval_all()
        assert defined.all() and [int(v) for v in vals] == [x**3 % 11 for x in range(11)]

    def test_eval_skips_poles(self):
        F = prime_field(11)
        r = RationalFunction((1,), (0, 1), F)  # 1/X
        vals, defined = r.eval_all()
        assert not defined[0]
        for x in range(1, 11):
            assert defined[x]
            assert vals[x] * x % 11 == 1

    def test_polynomial_is_defined_everywhere(self):
        F = PrimeField(11)
        vals, defined = RationalFunction((3, 0, 1), (1,), F).eval_all()
        assert defined.all() and np.array_equal(vals, poly_eval_all((3, 0, 1), 11))
        assert "inverse_values" not in vars(F)  # a polynomial needs no inverse table
        vals, defined = RationalFunction((3, 0, 1), (2,), F).eval_all()  # (X^2 + 3)/2
        assert defined.all()
        assert [int(v) * 2 % 11 for v in vals] == [(x * x + 3) % 11 for x in range(11)]

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction((1,), (0,), prime_field(11))
