import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gowersff import (
    FIXED_FAMILIES,
    FamilyDescriptor,
    MultiplicativeCharacter,
    PrimeField,
    TraceTable,
    fourier_trace,
    inverse_phase_trace,
    is_prime,
    kloosterman_direct,
    kloosterman_trace,
    legendre_curve_integers,
    legendre_curve_point_count,
    legendre_curve_trace,
    legendre_poly_trace,
    mixed_ask_trace,
    prime_field,
)
from gowersff import field as field_module
from gowersff.harness import KLOOSTERMAN_METHOD_TOL
from conftest import euler_legendre


def kloosterman_direct_oracle(a: int, p: int) -> complex:
    """S(a,1;p) by the literal double loop (independent of the library)."""
    total = 0j
    for y in range(1, p):
        ybar = pow(y, p - 2, p)
        total += np.exp(2j * np.pi * ((a * y + ybar) % p) / p)
    return total


class TestLegendrePoly:
    def test_values_at_p7_per_point_oracle(self):
        table = legendre_poly_trace((0, 1), prime_field(7))  # f = X
        expected = [euler_legendre(x, 7) for x in range(7)]
        assert expected == [0, 1, 1, -1, 1, -1, -1]
        assert np.array_equal(table.values.real, expected)
        assert np.abs(table.values.imag).max() == 0

    @pytest.mark.parametrize("p", [7, 101])
    def test_square_polynomial_rejected(self, p):
        with pytest.raises(ValueError, match="square-degenerate"):
            legendre_poly_trace((0, 0, 1), prime_field(p))   # X^2
        with pytest.raises(ValueError, match="square-degenerate"):
            legendre_poly_trace((0, 0, 3), prime_field(p))   # 3X^2

    @pytest.mark.parametrize("f", [(5,), (3,), (12, 0, 7)])
    def test_nonzero_constant_rejected(self, f):
        # A constant is a unit times 1^2, a square or not (3 is not, mod 7).
        with pytest.raises(ValueError, match="square-degenerate"):
            legendre_poly_trace(f, prime_field(7))

    def test_vanishing_reduction_rejected(self):
        with pytest.raises(ValueError, match="square-degenerate"):
            legendre_poly_trace((7, 7), prime_field(7))      # 0 mod 7

    @pytest.mark.parametrize("p", [7, 101, 499])
    def test_mean_is_zero_for_f_equals_x(self, p):
        # Direct-summation oracle: sum_x (x/p) over all of F_p is exactly 0
        # (residues and non-residues balance and the term at 0 vanishes).
        table = legendre_poly_trace((0, 1), prime_field(p))
        oracle = sum(euler_legendre(x, p) for x in range(p))
        assert oracle == 0
        assert abs(table.values.mean()) <= 1e-12

    def test_descriptor_roots_and_conductor(self):
        # f = X(X-1) has roots {0, 1}; conductor m + 2 = 4
        table = legendre_poly_trace((0, -1, 1), prime_field(11))
        d = table.descriptor
        assert d.rank == 1
        assert d.singular_set == {0, 1}
        assert d.conductor == 4


class TestInversePhase:
    def test_value_at_one(self, field101):
        table = inverse_phase_trace(field101)
        assert table.values[1] == field101.char_table[1]  # inv(1) = 1

    @pytest.mark.parametrize("p", [101, 499, 997])
    def test_complete_sum_is_minus_one(self, p):
        table = inverse_phase_trace(prime_field(p))
        assert abs(table.values.sum() - (-1)) <= 1e-10

    def test_unit_modulus_off_zero(self, field101):
        v = inverse_phase_trace(field101).values
        assert v[0] == 0
        assert np.abs(np.abs(v[1:]) - 1).max() <= 1e-12

    def test_descriptor(self, field101):
        d = inverse_phase_trace(field101).descriptor
        assert d.rank == 1
        assert d.singular_set == {0}
        assert d.conductor == 3


class TestKloosterman:
    def test_s11_mod5_against_double_sum_oracle(self):
        oracle = kloosterman_direct_oracle(1, 5)
        closed_form = 2 + 2 * math.cos(4 * math.pi / 5)  # = 0.381966...
        assert abs(oracle - closed_form) <= 1e-12
        table = kloosterman_trace(prime_field(5))
        assert abs(table.values[1] - closed_form / math.sqrt(5)) <= 1e-12

    @pytest.mark.parametrize("p", [101, 499])
    def test_value_at_zero(self, p):
        table = kloosterman_trace(prime_field(p))
        assert table.values[0] == -1 / math.sqrt(p)

    @pytest.mark.parametrize("p", [101, 499])
    def test_total_sum_vanishes(self, p):
        # Exchanging summation: sum_x S(x,1;p) over x != 0 equals +1,
        # cancelling the -1 from sqrt(p) * value(0).
        table = kloosterman_trace(prime_field(p))
        assert abs(table.values.sum()) <= 1e-9

    def test_direct_vs_transform_p499(self, field499):
        direct = kloosterman_direct(field499)
        transform = kloosterman_trace(field499).values
        assert np.abs(direct - transform).max() <= 1e-8

    def test_transform_matches_small_oracle(self):
        p = 13
        table = kloosterman_trace(prime_field(p))
        for a in range(1, p):
            assert abs(table.values[a] - kloosterman_direct_oracle(a, p) / math.sqrt(p)) <= 1e-10

    @pytest.mark.parametrize("p", [101, 499, 997, 1009, 1000003])
    def test_real_valued(self, p):
        # y -> -y conjugates S(x,1;p); the table keeps no rounding in Im.
        assert not kloosterman_trace(prime_field(p)).values.imag.any()

    @pytest.mark.parametrize("p", [101, 1009])
    def test_real_table_matches_direct_sum(self, p):
        field = prime_field(p)
        delta = np.abs(kloosterman_trace(field).values - kloosterman_direct(field)).max()
        assert delta <= KLOOSTERMAN_METHOD_TOL

    @pytest.mark.parametrize("p", [101, 499, 997])
    def test_weil_bound(self, p):
        v = kloosterman_trace(prime_field(p)).values
        assert np.abs(v[1:]).max() <= 2 + 1e-9

    def test_descriptor(self, field101):
        d = kloosterman_trace(field101).descriptor
        assert d.rank == 2
        assert d.singular_set == {0}
        assert d.conductor == 4


class TestLegendreCurve:
    @pytest.mark.parametrize("p", [101, 499])
    def test_fiat_values_at_zero_and_one(self, p):
        v = legendre_curve_trace(prime_field(p)).values
        assert v[0] == v[1] == 1 / math.sqrt(p)

    def test_hasse_bound(self, field101):
        v = legendre_curve_trace(field101).values
        assert np.abs(v).max() <= 2

    @pytest.mark.parametrize("p", [7, 101])
    def test_methods_agree_exactly_as_integers(self, p):
        F = prime_field(p)
        a = legendre_curve_point_count(F)
        b = legendre_curve_integers(F)
        assert a.dtype.kind == b.dtype.kind == "i"
        assert np.array_equal(a, b)

    @given(st.sampled_from([p for p in range(5, 401) if is_prime(p)]))
    @example(5)
    @example(7)
    @example(1009)
    @settings(max_examples=25, deadline=None)
    def test_transform_equals_point_count(self, p):
        F = prime_field(p)
        counted = legendre_curve_point_count(F)
        transform = legendre_curve_integers(F)
        assert transform.dtype.kind == "i"
        assert np.array_equal(transform, counted)

    def test_hasse_bound_at_p100003(self):
        # |p - N(x)| <= 2 sqrt(p) for every x; TraceTable checks it as well.
        v = legendre_curve_trace(prime_field(100003)).values
        assert np.abs(v).max() <= 2

    @pytest.mark.parametrize("p", [65537, 1000003])
    def test_large_p_sums_bounds_and_samples(self, p):
        # At 65537, 2p - 2 = 2^17: the edge of the padding to 2^ceil(log2(2p - 1)).
        F = PrimeField(p)
        ints = legendre_curve_integers(F)
        assert ints.sum() == 0  # sum_x ((u - x)/p) = 0 for every u
        assert np.abs(ints).max() <= 2 * math.sqrt(p)
        leg, u = F.legendre_table, np.arange(p, dtype=np.int64)
        for x in np.random.default_rng(p).integers(0, p, 16):
            assert ints[x] == -leg[u * ((u - 1) % p) % p * ((u - x) % p) % p].sum()

    def test_non_integral_correlation_refused(self, monkeypatch):
        F = prime_field(101)
        irfft = np.fft.irfft
        # Every lag 0.4 off, so c(0), which takes one lag, lands 0.4 from an
        # integer, past the 0.25 guard.
        monkeypatch.setattr(np.fft, "irfft", lambda *args, **kwargs: irfft(*args, **kwargs) + 0.4)
        with pytest.raises(ArithmeticError, match="not integral"):
            legendre_curve_integers(F)

    def test_point_count_against_naive_enumeration(self):
        # Independent oracle: literally enumerate (u, v) pairs at p = 11.
        p = 11
        ints = legendre_curve_point_count(prime_field(p))
        for x in range(p):
            n = sum(
                1
                for u in range(p)
                for v in range(p)
                if (v * v - u * (u - 1) * (u - x)) % p == 0
            )
            assert ints[x] == p - n

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            legendre_curve_trace(prime_field(3))

    def test_descriptor(self, field101):
        d = legendre_curve_trace(field101).descriptor
        assert d.rank == 2
        assert d.singular_set == {0, 1}
        assert d.conductor == 5


class TestMixedAsk:
    def test_reproduces_legendre_poly(self, field101):
        # index (p-1)/2: the quadratic character
        mixed = mixed_ask_trace(((), (1,)), ((0, 1), (1,)), 50, field101)
        direct = legendre_poly_trace((0, 1), field101)
        assert np.abs(mixed.values - direct.values).max() <= 1e-12
        assert mixed.descriptor.conductor == 3

    def test_reproduces_inverse_phase(self, field101):
        mixed = mixed_ask_trace(((1,), (0, 1)), ((1,), (1,)), 0, field101)
        direct = inverse_phase_trace(field101)
        assert np.abs(mixed.values - direct.values).max() <= 1e-12
        assert mixed.descriptor.singular_set == {0}
        assert mixed.descriptor.conductor == 3

    def test_cubic_phase_conductor(self, field101):
        mixed = mixed_ask_trace(((0, 0, 0, 1), (1,)), ((1,), (1,)), 0, field101)
        # pure phase e(x^3/p): pole of order 3 at infinity only
        assert mixed.descriptor.singular_set == frozenset()
        assert mixed.descriptor.conductor == 4

    @pytest.mark.parametrize("p, poles", [(103, set()), (101, {10, 91})])
    def test_conductor_counts_poles_over_the_closure(self, p, poles):
        # 1/(x^2 + 1): two poles, in F_p only when p = 1 mod 4 (10^2 = -1 mod 101).
        d = mixed_ask_trace(((1,), (1, 0, 1)), ((1,), (1,)), 0, prime_field(p)).descriptor
        assert d.singular_set == poles
        assert d.conductor == 4

    def test_zero_f2_rejected(self, field101):
        with pytest.raises(ValueError):
            mixed_ask_trace(((), (1,)), ((), (1,)), 0, field101)

    def test_cubic_phase_uniformity_switches_at_its_degree(self, field101):
        from gowersff import gowers_accelerated

        mixed = mixed_ask_trace(((0, 0, 0, 1), (1,)), ((1,), (1,)), 0, field101)
        u3 = gowers_accelerated(mixed.values, 3, field101)
        u4 = gowers_accelerated(mixed.values, 4, field101)
        assert u3 < 1
        # derived closed form: each nonzero shift leaves a quadratic phase
        # with U_2 = 1/p, so U_3 = (1 + (p-1)/p)/p
        assert abs(u3 - (2 * 101 - 1) / 101**2) <= 1e-10
        assert abs(u4 - 1) <= 1e-9

    def test_character_is_an_index_into_the_tables_field(self, field101):
        f1, f2 = ((0, 1), (1,)), ((0, 1), (1,))
        mixed = mixed_ask_trace(f1, f2, 151, field101)
        assert mixed.descriptor.label == "mixed_ask(f1=0,1;f2=0,1;chi=51)"
        assert np.array_equal(mixed.values, mixed_ask_trace(f1, f2, 51, field101).values)
        with pytest.raises(TypeError):  # a character of another field is not an index
            mixed_ask_trace(f1, f2, MultiplicativeCharacter(prime_field(103), 51), field101)

    def test_character_multiplicativity(self):
        F = prime_field(31)
        chi = MultiplicativeCharacter(F, 7)
        vals = chi.values()
        assert vals[0] == 0
        for x in range(1, 31):
            for y in range(1, 31):
                assert abs(vals[x] * vals[y] - vals[x * y % 31]) <= 1e-12

    def test_quadratic_character_is_legendre(self, field101):
        chi = MultiplicativeCharacter(field101, 50)
        vals = chi.values()
        for x in range(101):
            assert abs(vals[x] - euler_legendre(x, 101)) <= 1e-12


def _check_character_values(p: int, m_random: int, ks) -> None:
    """chi_m(g^k) = e(m k/(p-1)) with m k reduced mod p-1 in exact integers."""
    F = prime_field(p)
    g, n = F.primitive_root, p - 1
    ks = np.asarray(ks, dtype=np.int64)
    xs = np.array([pow(g, int(k), p) for k in ks], dtype=np.int64)
    for m in (0, 1, n // 2, p - 2, m_random % n):
        vals = MultiplicativeCharacter(F, m).values()
        expected = np.exp(2j * np.pi * (m * ks % n) / n)
        assert vals[0] == 0
        assert np.abs(vals[xs] - expected).max() <= 1e-12, (p, m)


class TestCharacterValues:
    @given(st.sampled_from([p for p in range(3, 10**4) if is_prime(p)]), st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_against_powers_of_g(self, p, m):
        _check_character_values(p, m, range(p - 1))

    def test_sampled_at_p1000003(self):
        ks = np.random.default_rng(5).integers(0, 1000002, size=2000)
        _check_character_values(1000003, 123456789, ks)

    def test_two_workers_scatter_the_same_values(self, monkeypatch):
        # p - 1 >= _CHUNK_VALUES: the values are scattered in two parts.
        field = prime_field(262147)
        values = []
        for workers in (1, 2):
            monkeypatch.setattr(field_module, "_WORKERS", workers)
            values.append([MultiplicativeCharacter(field, m).values() for m in (3, 131073)])
        for one, two in zip(*values):
            assert np.array_equal(one, two)


class TestFourierTrace:
    def test_constant_transforms_to_spike(self, field101):
        const = TraceTable(
            field101,
            np.ones(101, dtype=np.complex128),
            FamilyDescriptor("mixed_ask", "const", 1, 2),
        )
        out = fourier_trace(const).values
        assert abs(out[0] - (-math.sqrt(101))) <= 1e-9
        assert np.abs(out[1:]).max() <= 1e-9

    @pytest.mark.parametrize("p", [101, 499])
    def test_inverse_phase_transforms_to_minus_kloosterman(self, p):
        F = prime_field(p)
        lhs = fourier_trace(inverse_phase_trace(F)).values
        rhs = -kloosterman_trace(F).values
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_double_transform_is_reflection(self, field101):
        rng = np.random.default_rng(5)
        v = rng.normal(size=101) + 1j * rng.normal(size=101)
        table = TraceTable(
            field101, v, FamilyDescriptor("fourier_of", "raw", 0, 0)
        )
        twice = fourier_trace(fourier_trace(table)).values
        reflected = v[(-np.arange(101)) % 101]
        assert np.abs(twice - reflected).max() <= 1e-9

    @pytest.mark.parametrize("p", [101, 103])
    def test_matches_the_direct_sum(self, p):
        # -(1/sqrt(p)) sum_x v(x) e(tx/p) = -sqrt(p) conj(dft_direct(conj v))[t],
        # from the character table alone: no FFT.
        F = prime_field(p)
        rng = np.random.default_rng(p)
        v = rng.normal(size=p) + 1j * rng.normal(size=p)
        table = TraceTable(F, v, FamilyDescriptor("fourier_of", "raw", 0, 0))
        direct = -math.sqrt(p) * np.conj(F.dft_direct(np.conj(v)))
        assert np.abs(fourier_trace(table).values - direct).max() <= 1e-9

    def test_untracked_descriptor(self, field101):
        out = fourier_trace(inverse_phase_trace(field101))
        assert out.descriptor.rank == 0
        assert out.descriptor.conductor == 0


class TestTableInvariants:
    def test_pointwise_bound_all_families(self, field101):
        tables = [
            legendre_poly_trace((1, 1, 0, 1), field101),
            inverse_phase_trace(field101),
            kloosterman_trace(field101),
            legendre_curve_trace(field101),
            mixed_ask_trace(((0, 0, 0, 1), (1,)), ((0, 1), (1,)), 50, field101),
        ]
        for t in tables:
            assert np.abs(t.values).max() <= t.descriptor.rank + 1e-12

    def test_conductor_formula_every_family(self, field101):
        # legendre_poly: m + 2.  mixed_ask: 1 + deg den f1 + deg num f2 + deg den f2
        # + max(1, deg num f1 - deg den f1), in lowest terms mod p.
        cases = [
            (legendre_poly_trace((1, 1, 0, 1), field101), 3 + 2),
            (legendre_poly_trace((1, 1, 0, 101), field101), 1 + 2),  # f = 1 + X mod 101
            (inverse_phase_trace(field101), 3),
            (kloosterman_trace(field101), 4),
            (legendre_curve_trace(field101), 5),
            (mixed_ask_trace(((0, 0, 0, 1), (1,)), ((0, 1), (1, 1)), 50, field101),
             1 + 0 + 1 + 1 + 3),
            (mixed_ask_trace(((1,), (0, 0, 1)), ((1, 1), (1,)), 7, field101), 1 + 2 + 1 + 0 + 1),
            (mixed_ask_trace(((0, 1, 0, 0, 1), (1, 0, 1)), ((0, 1), (1,)), 3, field101),
             1 + 2 + 1 + 0 + 2),
            # (X^2 - 1)/(X - 1) reduces to X + 1: no pole, degree 1 at infinity.
            (mixed_ask_trace(((-1, 0, 1), (-1, 1)), ((1,), (1,)), 0, field101), 1 + 1),
            (mixed_ask_trace(((), (1,)), ((1,), (1,)), 0, field101), 1 + 1),  # f1 = 0
            (fourier_trace(inverse_phase_trace(field101)), 0),
        ]
        for table, conductor in cases:
            d = table.descriptor
            assert d.conductor == conductor, d.label
            assert d.rank == 0 or d.conductor >= d.rank + len(d.singular_set)

    def test_bound_violation_rejected(self, field101):
        desc = FamilyDescriptor("mixed_ask", "bad", 1, 2)
        with pytest.raises(ValueError, match="pointwise bound"):
            TraceTable(field101, np.full(101, 3.0, dtype=np.complex128), desc)

    def test_non_finite_values_rejected(self, field101):
        desc = FamilyDescriptor("mixed_ask", "bad", 1, 2)
        v = np.zeros(101, dtype=np.complex128)
        v[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            TraceTable(field101, v, desc)

    @pytest.mark.parametrize("generator, name, conductor", [
        (inverse_phase_trace, "inverse_phase", 3),
        (kloosterman_trace, "kloosterman", 4),
        (legendre_curve_trace, "legendre_curve", 5),
    ])
    def test_fixed_generators_share_their_descriptor(self, field101, generator, name,
                                                     conductor):
        desc = generator(field101).descriptor
        assert desc is FIXED_FAMILIES[name] is generator(prime_field(103)).descriptor
        assert desc.family == desc.label == name
        assert desc.conductor == conductor

    @pytest.mark.parametrize("rank, conductor, message", [
        (-1, 2, "rank must be non-negative"),
    ], ids=["negative_rank"])
    def test_negative_invariants_rejected(self, rank, conductor, message):
        with pytest.raises(ValueError, match=message):
            FamilyDescriptor("mixed_ask", "bad", rank, conductor)

    def test_conductor_below_rank_and_singular_points_refused(self):
        with pytest.raises(ValueError, match=re.escape(
                "conductor 2 is below rank + |singular set| = 3")):
            FamilyDescriptor("mixed_ask", "bad", 1, 2, {3, 5})
        with pytest.raises(ValueError, match=re.escape(
                "conductor 3 is below rank + |singular set| = 4")):
            FamilyDescriptor("kloosterman", "bad", 2, 3, [0, 1])
        singular = {3, 5}
        desc = FamilyDescriptor("mixed_ask", "x", 1, 3, singular)
        singular.add(7)  # the descriptor keeps its own frozen copy
        assert desc.singular_set == frozenset({3, 5}) and hash(desc) == hash(desc)
        # rank 0 is untracked: its conductor is 0 whatever the singular set.
        assert FamilyDescriptor("fourier_of", "raw", 0, 0, {3}).conductor == 0

    def test_values_are_read_only(self, field101):
        t = inverse_phase_trace(field101)
        with pytest.raises(ValueError):
            t.values[0] = 1.0
