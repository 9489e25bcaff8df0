import itertools
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gowersff import (
    FamilyDescriptor,
    PrimeField,
    TraceTable,
    WorkCapExceeded,
    evaluate,
    fourier_trace,
    gowers_accelerated,
    gowers_norm,
    gowers_oracle,
    gowers_recursive,
    inverse_phase_trace,
    is_prime,
    kloosterman_trace,
    legendre_curve_trace,
    legendre_poly_trace,
    make_table,
    mixed_ask_trace,
    parse_family,
    prime_field,
    u1,
)
from gowersff import field as field_module
from gowersff import norms
from gowersff.harness import DEFAULT_FAMILIES
from gowersff.norms import _finalize, _orbits
from gowersff.traces import legendre_curve_integers
from conftest import poly_phase, random_unit_vector

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"

# (p, d) pairs the oracle finishes quickly: odd primes with p^(d+1) <= 2e6.
ORACLE_CASES = [(p, d) for d in (3, 4, 5) for p in range(3, 40)
                if is_prime(p) and p ** (d + 1) <= 2 * 10**6]

# Primes whose p - 1 is 13-smooth, on both sides of Rader's floor.
SMOOTH_PRIMES = [p for p in range(3, 140)
                 if is_prime(p) and max(field_module._factor(p - 1)) <= 13]


def one_row_formula(values: np.ndarray, d: int) -> float:
    """U_d, d >= 3, with one DFT row per orbit, all rows in one batch.

    This is the kernel's complex-table arithmetic step for step, so a table
    whose orbit rows fit in one chunk must give the same float.
    """
    p, k = len(values), d - 2
    reps, weights = _orbits(p, k)
    window = np.arange(p)
    doubled = np.concatenate([values, values])
    rows = values[None, :]
    for omega in list(itertools.product((0, 1), repeat=k))[1:]:
        factor = doubled[((reps @ np.array(omega)) % p)[:, None] + window]
        if sum(omega) % 2:
            factor = np.conj(factor)
        rows = factor * rows
    hat = np.fft.fft(rows, axis=-1, norm="forward")
    power = hat.real * hat.real + hat.imag * hat.imag
    return float(weights @ (power * power).sum(axis=1)) / p**k


class TestU1:
    def test_constant_one(self):
        assert abs(u1(np.ones(17, dtype=np.complex128)) - 1) <= 1e-15

    @pytest.mark.parametrize("p", [101, 499, 997])
    def test_inverse_phase_mean_law(self, p):
        v = inverse_phase_trace(prime_field(p)).values
        assert abs(u1(v) - 1 / p**2) <= 1e-12

    @pytest.mark.parametrize("p", [101, 499, 997])
    def test_kloosterman_u1_vanishes(self, p):
        v = kloosterman_trace(prime_field(p)).values
        assert u1(v) <= 1e-10

    @pytest.mark.parametrize("values, message", [
        ([np.nan, 1.0], "values must be finite"),
        ([np.inf, 1.0], "values must be finite"),
        (np.ones((2, 3)), r"values must have shape \(p,\), got \(2, 3\)"),
        (np.array([]), r"values must have shape \(p,\), got \(0,\)"),
    ], ids=["nan", "inf", "2-d", "empty"])
    def test_refuses_what_the_routes_refuse(self, values, message):
        with pytest.raises(ValueError, match=message):
            u1(values)

    @pytest.mark.parametrize("p", [7, 101, 1009, 131101])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_bit_equal_to_the_d1_routes(self, p, real):
        # One reduction, over the complex128 table, for real input too.
        rng = np.random.default_rng(p)
        v = rng.normal(size=p) if real else rng.normal(size=p) + 1j * rng.normal(size=p)
        assert u1(v) == gowers_accelerated(v, 1) == gowers_recursive(v, 1)

    def test_takes_array_likes(self):
        assert u1([1, 2, 3]) == 4.0


class TestOracle:
    def test_d1_equals_u1(self):
        rng = np.random.default_rng(2)
        v = random_unit_vector(31, rng)
        assert abs(gowers_oracle(v, 1) - u1(v)) <= 1e-10

    def test_quadratic_phase_d2_p13(self):
        v = poly_phase((0, 0, 1), 13)
        assert abs(gowers_oracle(v, 2) - 1 / 13) <= 1e-10

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_quadratic_phase_d3_is_one(self, p):
        v = poly_phase((0, 0, 1), p)
        assert abs(gowers_oracle(v, 3) - 1) <= 1e-10

    def test_work_cap_refusal_names_cap(self):
        v = np.ones(101, dtype=np.complex128)
        with pytest.raises(WorkCapExceeded, match="work cap"):
            gowers_oracle(v, 5)  # 101^6 > 1e9

    def test_custom_cap(self):
        v = np.ones(11, dtype=np.complex128)
        with pytest.raises(WorkCapExceeded):
            gowers_oracle(v, 2, work_cap=100)

    def test_estimate_past_the_float_range_refused(self):
        # 101^201 has no float value: the estimate counts as infinite.
        with pytest.raises(WorkCapExceeded, match=r"p\^\(d\+1\) = inf exceeds work cap"):
            gowers_oracle(np.ones(101), 200)
        with pytest.raises(WorkCapExceeded, match=r"U_1000000 at p = 3: .* = inf exceeds"):
            gowers_oracle(np.ones(3), 10**6)


class TestRecursive:
    def test_d1_equals_u1(self):
        rng = np.random.default_rng(3)
        v = random_unit_vector(101, rng)
        assert gowers_recursive(v, 1) == pytest.approx(u1(v), abs=1e-15)

    def test_random_sign_vector_matches_oracle_p31_d3(self):
        rng = np.random.default_rng(4)
        v = (rng.integers(0, 2, 31) * 2 - 1).astype(np.complex128)
        assert abs(gowers_recursive(v, 3) - gowers_oracle(v, 3)) <= 1e-9

    def test_kloosterman_matches_accelerated_p101_d2(self, field101):
        v = kloosterman_trace(field101).values
        assert abs(gowers_recursive(v, 2) - gowers_accelerated(v, 2, field101)) <= 1e-9

    def test_d4_small_prime(self):
        rng = np.random.default_rng(5)
        v = random_unit_vector(11, rng)
        assert abs(gowers_recursive(v, 4) - gowers_oracle(v, 4)) <= 1e-9


def per_h_recursion(values: np.ndarray, d: int) -> float:
    """U_d by recursion on one row and one h at a time: the batched oracle's reference.

    Each level forms xi_h(phi) = phi(x + h) conj(phi(x)) for one h and
    recurses on it; d = 2 takes its h values in chunks of 2^21 values.  The
    batches must give the same floats, bit for bit.
    """
    values = np.asarray(values, dtype=np.complex128)
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    p = len(values)
    if d == 1:
        return _finalize(u1(values), 1e-9)
    if d == 2:
        acc = np.empty(p)
        chunk = max(1, (1 << 21) // p)
        shifted = sliding_window_view(np.concatenate([values, values[:-1]]), p)
        for start in range(0, p, chunk):
            m = (shifted[start : start + chunk] * np.conj(values)).mean(axis=1)
            acc[start : start + chunk] = m.real * m.real + m.imag * m.imag
        return _finalize(float(acc.mean()), 1e-9)
    per_h = np.empty(p)
    for h in range(p):
        per_h[h] = per_h_recursion(np.roll(values, -h) * np.conj(values), d - 1)
    return _finalize(float(per_h.mean()), 1e-9)


class TestRecursiveBlocks:
    """gowers_recursive takes the xi_h rows of many (row, h) pairs per numpy pass."""

    @pytest.mark.parametrize("p", [3, 13, 101])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bit_equal_to_the_per_h_recursion(self, p, d):
        v = random_unit_vector(p, np.random.default_rng(10 * p + d))
        assert gowers_recursive(v, d) == per_h_recursion(v, d)

    # A block holds several rows up to p = 181 and one from 182 on; from
    # p = 1451 on, a row's h values are split into slices of 2^21 values.
    @pytest.mark.parametrize("p, d", [(181, 1), (181, 2), (181, 3), (191, 1), (191, 2), (191, 3),
                                      (1447, 2), (1451, 2)])
    def test_bit_equal_across_block_shapes(self, p, d):
        rng = np.random.default_rng(p + d)
        v = rng.normal(size=p) + 1j * rng.normal(size=p)
        assert gowers_recursive(v, d) == per_h_recursion(v, d)

    @pytest.mark.parametrize("family", DEFAULT_FAMILIES)
    def test_verify_families_bit_equal(self, family):
        values = make_table(parse_family(family), 101).values
        for d in (1, 2, 3):
            assert gowers_recursive(values, d) == per_h_recursion(values, d), d

    def test_overflowing_xi_rows_refused(self):
        # 1e200 is finite, but its xi_h rows overflow to inf.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="values must be finite"):
                gowers_recursive(np.full(7, 1e200 + 0j), 3)

    def test_memory_peak_at_p101_d3(self):
        v = random_unit_vector(101, np.random.default_rng(1))
        tracemalloc.start()
        try:
            gowers_recursive(v, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestAccelerated:
    def test_u2_constant(self):
        assert abs(gowers_accelerated(np.ones(101, dtype=np.complex128), 2) - 1) <= 1e-10

    def test_u2_single_mode(self, field101):
        v = field101.char_table[(9 * np.arange(101)) % 101]
        assert abs(gowers_accelerated(v, 2, field101) - 1) <= 1e-10

    def test_u2_random_matches_recursive_p499(self, field499):
        rng = np.random.default_rng(6)
        v = random_unit_vector(499, rng)
        assert abs(gowers_accelerated(v, 2, field499) - gowers_recursive(v, 2)) <= 1e-9

    def test_d2_is_u2(self, field101):
        # U_2 = sum_t |phi_hat(t)|^4, with numpy's FFT as the independent transform.
        rng = np.random.default_rng(7)
        v = random_unit_vector(101, rng)
        expected = float(np.sum(np.abs(np.fft.fft(v) / 101) ** 4))
        assert gowers_accelerated(v, 2, field101) == pytest.approx(expected, rel=1e-12)

    def test_u2_sum_is_accurate_at_p1000003(self):
        # p^-3 sum_h |c(h)|^2 against math.fsum of the same squares: numpy's
        # pairwise sum is within 1e-15 relative, where BLAS's vdot was 4e-15 off.
        p = 1000003
        field = prime_field(p)
        v = inverse_phase_trace(field).values
        c = field.correlation(v).view(np.float64)
        exact = math.fsum((c * c).tolist()) / p**3
        assert gowers_accelerated(v, 2, field) == pytest.approx(exact, rel=1e-15, abs=0)

    def test_legendre_curve_d3_matches_recursive(self, field101):
        v = legendre_curve_trace(field101).values
        assert abs(
            gowers_accelerated(v, 3, field101) - gowers_recursive(v, 3)
        ) <= 1e-8

    def test_inverse_phase_p1009_d3_completes(self):
        F = prime_field(1009)
        v = inverse_phase_trace(F).values
        u3 = gowers_accelerated(v, 3, F)
        assert 0 <= u3 * 1009 <= 1e3

    def test_d1_is_u1(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=11) + 1j * rng.normal(size=11)
        assert gowers_accelerated(v, 1) == u1(v)

    def test_deep_refusal_above_256(self):
        v = np.ones(257, dtype=np.complex128)
        with pytest.raises(WorkCapExceeded, match="257"):
            gowers_accelerated(v, 5)

    def test_deep_allowed_at_small_p(self):
        rng = np.random.default_rng(8)
        v = random_unit_vector(7, rng)
        assert abs(gowers_accelerated(v, 5) - gowers_oracle(v, 5)) <= 1e-9

    def test_work_cap_estimate_refusal(self):
        v = np.ones(997, dtype=np.complex128)
        with pytest.raises(WorkCapExceeded, match="work cap"):
            gowers_accelerated(v, 4, work_cap=10**6)

    def test_non_positive_work_cap_refused(self):
        with pytest.raises(ValueError, match="work_cap must be finite and positive, got -1"):
            gowers_accelerated(np.ones(101), 2, work_cap=-1)

    def test_non_positive_work_cap_refused_at_d1(self):
        # d = 1 has no cost to estimate, yet a bad cap is refused as at d >= 2.
        with pytest.raises(ValueError, match="work_cap must be finite and positive, got 0"):
            gowers_accelerated(np.ones(101), 1, work_cap=0)

    def test_work_cap_estimate_counts_corner_products(self):
        # C(7 + 9, 10) = 8008 rows * 13 * (2^10 + log2 13) ~ 1.07e8; counting
        # only the DFTs (rows * p * log2 p) would give ~3.9e5 and run it.
        v = np.ones(13, dtype=np.complex128)
        with pytest.raises(WorkCapExceeded, match="work cap"):
            gowers_accelerated(v, 12, work_cap=10**6)

    def test_estimate_past_the_float_range_refused(self):
        # C(1502, 998) rows * 1009 * 2^998 has no float value.
        with pytest.raises(WorkCapExceeded, match="U_1000 at p = 1009: .* = inf exceeds work cap"):
            gowers_accelerated(np.ones(1009), 1000)

    def test_estimate_past_the_float_range_refused_without_the_binomial(self, monkeypatch):
        # The corner factor 2^k comes first: from k = 1024 on it overflows and
        # no binomial is computed (C(599999, 99998) would have ~5e5 bits).  At
        # k = 1023 one is, C(501023, 1023), and the product is past the float range.
        comb, calls = math.comb, []

        def small_comb(n, k):
            assert k <= 1023, f"math.comb({n}, {k}) was computed"
            calls.append(k)
            return comb(n, k)

        monkeypatch.setattr(math, "comb", small_comb)
        values = np.ones(1000003)
        for d, computed in ((100000, []), (1026, []), (1025, [1023])):
            calls.clear()
            with pytest.raises(WorkCapExceeded, match=f"U_{d} at p = 1000003: .* = inf exceeds"):
                gowers_accelerated(values, d)
            assert calls == computed

    def test_work_cap_estimate_counts_orbit_rows(self, field101):
        # 51 rows * 101 * 2 + 26 DFT rows * 101 * log2(101) ~ 2.8e4 fits;
        # p^2 log2 p ~ 6.8e4 would not.
        v = kloosterman_trace(field101).values
        u3 = gowers_accelerated(v, 3, field101, work_cap=50_000)
        assert abs(u3 - gowers_recursive(v, 3)) <= 1e-9

    def test_work_cap_estimate_counts_dft_rows_of_real_tables(self):
        # 5685 rows at p = 11369: a complex table transforms all of them,
        # 5685 * 11369 * (2 + log2 p) ~ 1.00005e9, over the cap; the real
        # Kloosterman table packs them into 2843 DFT rows, ~5.6e8.
        field = prime_field(11369)
        with pytest.raises(WorkCapExceeded, match="work cap"):
            gowers_accelerated(inverse_phase_trace(field).values, 3, field)
        u3 = gowers_accelerated(kloosterman_trace(field).values, 3, field)
        assert 0 < u3 * 11369 < 6


class TestOrbitKernel:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(ORACLE_CASES), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_oracle(self, case, seed, real):
        # A real table takes the paired path, a complex one a DFT row per orbit.
        p, d = case
        rng = np.random.default_rng(seed)
        if real:
            v = rng.uniform(-1, 1, p)
        else:
            v = rng.random(p) * np.exp(2j * np.pi * rng.random(p))
        accelerated = gowers_accelerated(v, d)
        assert abs(accelerated - gowers_oracle(v, d)) <= 1e-9

    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from([(101, 3), (211, 4)]), st.integers(0, 2**32 - 1),
           st.floats(0.1, 6.2))
    def test_real_rows_pair_across_chunks(self, case, seed, angle):
        # (101, 3) has 51 orbit rows, so one is left unpaired; (211, 4) has
        # 5671, over five chunks, the last one odd.  A unit rotation keeps
        # U_d (d >= 2) but sends the table through the one-row path.
        p, d = case
        v = np.random.default_rng(seed).uniform(-1, 1, p)
        packed = gowers_accelerated(v, d)
        assert packed == pytest.approx(gowers_accelerated(np.exp(1j * angle) * v, d), rel=1e-12)
        if d == 3:
            assert abs(packed - gowers_recursive(v, d)) <= 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(ORACLE_CASES), st.integers(0, 2**32 - 1))
    def test_complex_tables_keep_one_row_formula(self, case, seed):
        p, d = case
        rng = np.random.default_rng(seed)
        v = rng.random(p) * np.exp(2j * np.pi * rng.random(p))
        assert gowers_accelerated(v, d) == one_row_formula(v, d)

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_orbit_weights_and_count(self, p, k):
        reps, weights = _orbits(p, k)
        assert reps.shape[1] == k
        assert weights.sum() == p**k
        assert len(reps) == math.comb((p + 1) // 2 + k - 1, k)

    @pytest.mark.parametrize("d, rows", [(2, 0), (3, 51), (4, 1326)])
    def test_one_dft_row_per_orbit(self, monkeypatch, field101, d, rows):
        # rows is the orbit count.  A complex table (inverse_phase) transforms
        # one row per orbit; a real one (Kloosterman) packs two orbit rows
        # into each complex DFT row (an odd last row has one alone).  U_2
        # transforms no prime-length row: it takes the autocorrelation.
        # Every kernel row passes PrimeField._transform, on either route.
        complex_table = inverse_phase_trace(field101).values
        real_table = kloosterman_trace(field101).values
        seen = []
        transform = PrimeField._transform

        def spy(self, rows):
            seen.append(len(rows))
            return transform(self, rows)

        monkeypatch.setattr(PrimeField, "_transform", spy)
        gowers_accelerated(complex_table, d, field101)
        assert sum(seen) == rows
        seen.clear()
        gowers_accelerated(real_table, d, field101)
        assert sum(seen) == {0: 0, 51: 26, 1326: 663}[rows]

    @pytest.mark.parametrize("family, d, p", [
        (kloosterman_trace, 3, 1009), (kloosterman_trace, 4, 101), (kloosterman_trace, 4, 211),
        # U_2 at p ~ 10^6: a real table (rfft) and a complex one (fft).
        (kloosterman_trace, 2, 1000003), (inverse_phase_trace, 2, 1000003),
        # Rader's route at the scan's larger primes.
        (kloosterman_trace, 3, 2017), (kloosterman_trace, 3, 4001), (kloosterman_trace, 3, 8009),
        (kloosterman_trace, 4, 313),
    ], ids=["3-1009", "4-101", "4-211", "kloosterman-2-1000003", "inverse_phase-2-1000003",
            "3-2017", "3-4001", "3-8009", "4-313"])
    def test_matches_benchmark_references(self, family, d, p):
        name = family.__name__.removesuffix("_trace")
        expected = json.loads(REFERENCES.read_text())["u_d"][f"{name}|{d}|{p}"]
        field = prime_field(p)
        u_d = gowers_accelerated(family(field).values, d, field)
        assert u_d == pytest.approx(expected, rel=1e-9)


class TestFamilyConstants:
    """U_d * p tends to a constant, and at d = 4 the constant depends on the
    family: inverse_phase approaches 5 (about 5 - 50/p), Kloosterman 4."""

    @pytest.mark.parametrize("p", [307, 503])
    def test_u4_of_inverse_phase_tends_to_5_and_kloosterman_to_4(self, p):
        field = prime_field(p)
        inverse = gowers_accelerated(inverse_phase_trace(field).values, 4, field) * p
        kloosterman = gowers_accelerated(kloosterman_trace(field).values, 4, field) * p
        assert inverse > 4.5  # 4.842 at 307, 4.903 at 503
        assert kloosterman < 4.1  # 4.084 at 307, 4.050 at 503


class TestExactIdentities:
    """Closed forms that check the production routes where no oracle reaches.

    131101 and 1000003 lie past 2^17: Kloosterman's Hermitian row and U_2's
    correlation on two workers.  2011 takes numpy's transforms, 2017 Rader's.
    """

    @pytest.mark.parametrize("p", [101, 1009, 131101, 1000003])
    def test_u2_and_second_moment(self, p):
        # Gauss sums; Kloosterman's spectrum e(1/t)/sqrt(p) off t = 0; and the
        # fourth and second moments of Kloosterman sums.
        values = {family: make_table(parse_family(family), p).values
                  for family in ("kloosterman", "inverse_phase", "legendre_poly:0,1")}
        u2 = {family: gowers_accelerated(v, 2) for family, v in values.items()}
        assert u2["kloosterman"] == pytest.approx((p - 1) / p**2, rel=1e-12)
        assert u2["inverse_phase"] == pytest.approx((2 * p**3 - 3 * p**2 - 3 * p) / p**4,
                                                    rel=1e-12)
        assert u2["legendre_poly:0,1"] == pytest.approx((p - 1) / p**2, rel=1e-12)
        kl = values["kloosterman"]
        assert float(np.sum(np.abs(kl) ** 2)) == pytest.approx(p - 1, rel=1e-12)

    @pytest.mark.parametrize("p", [101, 1009, 131101, 1000003])
    def test_legendre_curve_integer_moments(self, p):
        a = legendre_curve_integers(prime_field(p))
        assert int(a.sum()) == 0
        assert int(np.square(a).sum()) == p * p - 2 * p - 1

    @pytest.mark.parametrize("p", [2011, 2017], ids=["numpy", "rader"])
    @pytest.mark.parametrize("generator", [kloosterman_trace, inverse_phase_trace])
    def test_u3_is_fourier_invariant(self, p, generator):
        table = generator(prime_field(p))
        assert gowers_accelerated(fourier_trace(table).values, 3) == pytest.approx(
            gowers_accelerated(table.values, 3), rel=1e-12)


class TestParityRule:
    """U_d * p tends to (d - 2) + M, M = 3 when the rows' spectra are real up
    to a rotation (a Hermitian table at even d - 2, an even one at odd d - 2)
    and 2 otherwise.  e(x^-1) and e(x^-3) are Hermitian and e(x^-2) is even."""

    @staticmethod
    def inverse_power_phase(p, k):
        field = prime_field(p)
        f1 = ((1,), (0,) * k + (1,))  # 1/x^k
        return mixed_ask_trace(f1, ((1,), (1,)), 0, field).values

    @pytest.mark.parametrize("p", [503, 1009])
    def test_u3_of_the_even_phase_tends_to_4(self, p):
        assert gowers_accelerated(self.inverse_power_phase(p, 2), 3) * p > 3.5  # 3.973 at 503
        assert gowers_accelerated(self.inverse_power_phase(p, 1), 3) * p < 3.1  # 2.965 at 503

    @pytest.mark.parametrize("p", [211, 307])
    def test_u4_of_the_odd_phase_tends_to_5(self, p):
        assert gowers_accelerated(self.inverse_power_phase(p, 3), 4) * p > 4.5  # 4.787 at 211
        assert gowers_accelerated(self.inverse_power_phase(p, 2), 4) * p < 4.0  # 3.820 at 211

    @staticmethod
    def rotated_imag(values, hs, field):
        """max |Im z| / max |z| for z(t) = dft(psi)(t) e(ct/2p), psi the row
        Delta_h phi = xi_h_k(...xi_h_1(phi)...), xi_h(psi)(x) = psi(x + h) conj psi(x),
        and c = -(h_1 + ... + h_k)."""
        row = values
        for h in hs:
            row = np.roll(row, -h) * np.conj(row)
        t = np.arange(field.p)
        z = field.dft(row) * np.exp(1j * np.pi * -sum(hs) * t / field.p)
        return np.abs(z.imag).max() / np.abs(z).max()

    @pytest.mark.parametrize("p", [101, 1009])
    def test_row_spectra_are_real_up_to_the_rotation(self, p):
        # psi(c - x) = conj psi(x) for a Hermitian phi at k = 2 and an even
        # phi at k = 1, so its spectrum times e(ct/2p) is real; at the other
        # k nothing makes it so.
        field, rng = prime_field(p), np.random.default_rng(6)
        draws = [tuple(int(h) for h in rng.integers(1, p, size=2)) for _ in range(20)]
        for values, k in ((inverse_phase_trace(field).values, 2),
                          (self.inverse_power_phase(p, 3), 2),
                          (self.inverse_power_phase(p, 2), 1)):
            ratios = {j: max(self.rotated_imag(values, hs[:j], field) for hs in draws)
                      for j in (1, 2)}
            assert ratios[k] <= 1e-10  # measured <= 1.1e-12
            assert ratios[3 - k] > 0.5  # the control: >= 0.99

    @pytest.mark.parametrize("p", [101, 211])
    def test_u4_of_legendre_curve_tends_to_5(self, p):
        # a(1 - x) = (-1/p) a(x): the table is even or odd about 1/2.
        assert gowers_accelerated(legendre_curve_trace(prime_field(p)).values, 4) * p > 4.5


def _rader_field(p: int) -> PrimeField:
    """A fresh field whose orbit kernel takes Rader's route, whatever the rule says of p."""
    field = PrimeField(p)
    field._plan = field._rader_plan()
    return field


class TestRaderRoute:
    """Rader's algorithm for the orbit kernel's rows, where p - 1 is 13-smooth."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SMOOTH_PRIMES), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @example(p=3, n=1, seed=0)
    def test_u2_sums_match_direct_dft(self, p, n, seed):
        # Rows go in as [x(0), x(g^0), x(g^-1), ...] and come out as
        # [hat(0), hat(g^0), hat(g^1), ...].  Read as n complex rows or as
        # 2n real rows packed in pairs, their U_2 sums are the direct ones.
        field = _rader_field(p)
        plan = field._plan
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, p)) + 1j * rng.normal(size=(n, p))
        direct = field.dft_direct(v)
        hat = field._transform(v[:, plan.order].copy())  # C order, as the kernel's rows
        out_order = np.concatenate([[0], field._powers()])
        assert np.abs(hat - direct[:, out_order]).max() <= 1e-14 * np.abs(direct).max()
        u2 = (np.abs(direct) ** 4).sum(axis=1)
        assert norms._u2_sums(hat.copy()) == pytest.approx(u2, rel=1e-14)
        reals = np.stack([v.real, v.imag], axis=1).reshape(2 * n, p)
        paired = norms._paired_u2_sums(hat, np.empty((n, p // 2), complex), plan.partners)
        assert paired == pytest.approx((np.abs(field.dft_direct(reals)) ** 4).sum(axis=1),
                                       rel=1e-14)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("p, d, oracle", [(37, 3, gowers_oracle), (41, 4, gowers_recursive)],
                             ids=["3-37", "4-41"])
    def test_kernel_matches_oracles(self, monkeypatch, workers, real, p, d, oracle):
        # Chunks of 8 rows: 19 orbit rows at (37, 3) run as 8 + 8 + 3 and 231
        # at (41, 4) as 28 * 8 + 7, so a real table's last row is unpaired.
        monkeypatch.setattr(field_module, "_rader_route", lambda p: True)
        monkeypatch.setattr(field_module, "_WORKERS", workers)
        monkeypatch.setattr(norms, "_CHUNK_VALUES", 8 * p)
        field = PrimeField(p)
        assert field._plan.spectrum is not None
        rng = np.random.default_rng(p + d)
        v = rng.uniform(-1, 1, p) if real else rng.random(p) * np.exp(2j * np.pi * rng.random(p))
        assert gowers_accelerated(v, d, field) == pytest.approx(oracle(v, d), rel=1e-12)

    def test_band_primes_take_the_measured_route(self):
        # The benchmark's d = 3 and d = 4 bands: Rader where p - 1 is 13-smooth.
        rader = {101, 109, 211, 313, 1009, 2003, 2017, 4001, 8009}
        bands = [101, 103, 107, 109, 211, 223, 227, 229, 307, 311, 313, 317,
                 1009, 1013, 1019, 1021, 2003, 2011, 2017, 2027,
                 4001, 4003, 4007, 4013, 8009, 8011, 8017, 8039]
        assert {p for p in bands if field_module._rader_route(p)} == rader
        assert prime_field(8009)._plan.spectrum is not None
        assert prime_field(8011)._plan.spectrum is None


def _brute_twist_energies(values: np.ndarray, p: int) -> np.ndarray:
    """sum_b |beta(a, b)|^4 for every a: U_2 of phi(x) e(-a x^2/p), one FFT per a."""
    x = np.arange(p)
    twisted = values * np.exp(-2j * np.pi * (np.outer(x, x * x) % p) / p)
    return (np.abs(np.fft.fft(twisted, axis=1) / p) ** 4).sum(axis=1)


def _twist_table(family: str, field: PrimeField) -> np.ndarray:
    if family == "planted":  # e((5x + 7x^2)/p), complex
        return mixed_ask_trace(((0, 5, 7), (1,)), ((1,), (1,)), 0, field).values
    return (kloosterman_trace if family == "kloosterman" else inverse_phase_trace)(field).values


class TestTwistEnergies:
    """At d = 3 the orbit kernel's spectra also give every a its energy
    E(a) = sum_b |beta(a, b)|^4 = U_2(phi(x) e(-a x^2/p))."""

    # Below Rader's floor, on Rader's route (101) and on numpy's (107).
    @pytest.mark.parametrize("p", [5, 7, 101, 107])
    @pytest.mark.parametrize("family", ["kloosterman", "inverse_phase", "planted"])
    def test_energies_match_brute_force(self, p, family):
        field = prime_field(p)
        values = _twist_table(family, field)
        energies = np.full(p, np.nan)
        assert gowers_accelerated(values, 3, field, twists=energies) == gowers_accelerated(
            values, 3, field)
        expected = _brute_twist_energies(values, p)
        assert np.all(np.abs(energies - expected) <= 1e-12 * expected)
        if family == "kloosterman":  # a real table reads t and -t alike: E(-a) = E(a)
            assert np.array_equal(energies[1:], energies[:0:-1])

    @pytest.mark.parametrize("p", [101, 107])
    @pytest.mark.parametrize("family", ["kloosterman", "planted"])
    def test_chunks_and_workers(self, monkeypatch, p, family):
        # Chunks of 8 rows: 51 or 54 orbit rows over several chunks, a real
        # table's last one odd at p = 101.  The energies are summed in chunk
        # order, so one worker and two give the same bits.
        monkeypatch.setattr(norms, "_CHUNK_VALUES", 8 * p)
        field = prime_field(p)
        values = _twist_table(family, field)
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(field_module, "_WORKERS", workers)
            runs.append(np.empty(p))
            gowers_accelerated(values, 3, field, twists=runs[-1])
        assert np.array_equal(runs[0], runs[1])
        expected = _brute_twist_energies(values, p)
        assert np.all(np.abs(runs[0] - expected) <= 1e-12 * expected)

    @pytest.mark.parametrize("d, shape", [(1, (101,)), (2, (101,)), (4, (101,)),
                                          (3, (100,)), (3, (101, 1))])
    def test_refused_off_d3_and_at_a_wrong_shape(self, field101, d, shape):
        values = kloosterman_trace(field101).values
        with pytest.raises(ValueError, match="twists takes d = 3"):
            gowers_accelerated(values, d, field101, twists=np.empty(shape))

    # An int64 array would take its energies as zeros, a complex one complex
    # energies: each is refused before any row is transformed.
    @pytest.mark.parametrize("kind", ["int64", "complex128", "read-only", "list"])
    def test_refused_unless_a_writable_float64_array(self, monkeypatch, field101, kind):
        twists = {"int64": np.zeros(101, np.int64), "complex128": np.zeros(101, np.complex128),
                  "read-only": np.zeros(101), "list": [0.0] * 101}[kind]
        if kind == "read-only":
            twists.flags.writeable = False
        values = kloosterman_trace(field101).values

        def transform(self, rows):
            raise AssertionError("a row was transformed")

        monkeypatch.setattr(PrimeField, "_transform", transform)
        with pytest.raises(ValueError, match="writable float64 array of shape"):
            gowers_accelerated(values, 3, field101, twists=twists)


class TestBatches:
    """A chunk is filled, transformed and summed in batches of DFT rows that
    share the worker's buffers; the chunk stays the unit of U_d's sum."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("p", [157, 149], ids=["rader", "numpy"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_batch_size_does_not_change_u_d(self, monkeypatch, workers, real, p, d):
        # One batch per chunk against batches of the 16-row floor.  At d = 3
        # the 79 or 75 orbit rows are one chunk: a complex table's run as 4
        # batches, a real table's as 40 + 39 or 38 + 37, an odd last row.  At
        # d = 4 the 3160 or 2850 rows are several chunks.
        monkeypatch.setattr(field_module, "_WORKERS", workers)
        field = PrimeField(p)
        rng = np.random.default_rng(p + d)
        v = rng.uniform(-1, 1, p) if real else rng.random(p) * np.exp(2j * np.pi * rng.random(p))
        runs = {}
        for budget in (1 << 40, 1):
            monkeypatch.setattr(norms, "_BATCH_VALUES", budget)
            runs[budget] = gowers_accelerated(v, d, field)
        assert runs[1] == runs[1 << 40]

    @pytest.mark.parametrize("p", [157, 149], ids=["rader", "numpy"])
    @pytest.mark.parametrize("family", ["kloosterman", "planted"])
    def test_twist_energies_over_several_batches(self, monkeypatch, p, family):
        monkeypatch.setattr(norms, "_BATCH_VALUES", 1)  # 2 real batches, or 4 complex
        field = prime_field(p)
        values = _twist_table(family, field)
        energies = np.empty(p)
        gowers_accelerated(values, 3, field, twists=energies)
        expected = _brute_twist_energies(values, p)
        assert np.all(np.abs(energies - expected) <= 1e-12 * expected)

    @pytest.mark.parametrize("family, rows", [
        # 1006 orbit rows in chunks of 65: 15 full ones and one of 31.
        ("planted", [17, 17, 17, 14] * 15 + [17, 14]),
        # Chunks of 66 real rows (15 and one of 16), two to a DFT row: no
        # batch holds an odd row, or the DFT rows would add up to more than 503.
        ("kloosterman", [17, 16] * 15 + [8]),
    ])
    def test_batches_at_p2011(self, monkeypatch, family, rows):
        monkeypatch.setattr(field_module, "_WORKERS", 1)
        field = prime_field(2011)
        transform = PrimeField._transform
        seen = []

        def spy(self, hat):
            seen.append(len(hat))
            return transform(self, hat)

        monkeypatch.setattr(PrimeField, "_transform", spy)
        gowers_accelerated(_twist_table(family, field), 3, field)
        assert seen == rows

    def test_memory_of_a_u3_pass_with_twists(self):
        # Each worker's buffers hold one batch of about 2^15 values: buffers
        # for a whole chunk of 2^17 values would trace about 10.6 MiB.
        field = prime_field(2011)
        values = _twist_table("planted", field)
        energies = np.empty(2011)
        gowers_accelerated(values, 3, field, twists=energies)  # the field's tables, cached
        tracemalloc.start()
        try:
            gowers_accelerated(values, 3, field, twists=energies)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestChunkRunner:
    """The orbit kernel's chunks, shared between the calling thread and a helper."""

    @pytest.mark.parametrize("family", [kloosterman_trace, inverse_phase_trace],
                             ids=["real", "complex"])
    @pytest.mark.parametrize("p, d", [(2017, 3), (211, 4), (2011, 3)])
    def test_worker_count_does_not_change_u_d(self, monkeypatch, family, p, d):
        # Every case spans several chunks of 2^17 values: 1009 rows of 2017,
        # 5671 rows of 211 and 1006 rows of 2011.  2017 and 211 take Rader's
        # route, 2011 (2010 = 2 * 3 * 5 * 67) numpy's.
        field = prime_field(p)
        values = family(field).values
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(field_module, "_WORKERS", workers)
            results.append(gowers_accelerated(values, d, field))
        assert results[0] == results[1]

    def test_one_chunk_starts_no_thread(self, monkeypatch, field101):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(field_module, "_WORKERS", 2)
        monkeypatch.setattr(threading, "Thread", no_thread)
        values = kloosterman_trace(field101).values
        gowers_accelerated(values, 2, field101)  # one row
        gowers_accelerated(values, 3, field101)  # 51 rows, one chunk
        field = prime_field(2017)
        with pytest.raises(AssertionError, match="a thread was started"):
            gowers_accelerated(kloosterman_trace(field).values, 3, field)

    def test_helper_error_is_raised_by_the_caller(self, monkeypatch):
        monkeypatch.setattr(field_module, "_WORKERS", 2)
        ran = []

        def work(i, buf):
            ran.append(i)
            if i == 1:
                raise MemoryError("chunk 1")
            return i

        with pytest.raises(MemoryError, match="chunk 1"):
            field_module._in_chunks(4, work, lambda: (None,))
        assert 1 in ran and 3 not in ran

    def test_results_keep_chunk_order_under_thread_switching(self, monkeypatch):
        # More workers than cores, switching threads every microsecond: each
        # chunk's result lands at its own index, and each worker accumulates
        # only its own chunks (i, i + 4, ...) in its own buffer.
        monkeypatch.setattr(field_module, "_WORKERS", 4)
        owners = []

        def buffers():  # all made by the calling thread, before any helper starts
            owners.append(threading.get_ident())
            return (np.zeros(1000),)

        def work(i, buf):
            buf += i
            return i, float(buf.sum())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = field_module._in_chunks(400, work, buffers)
        finally:
            sys.setswitchinterval(interval)
        assert owners == [threading.get_ident()] * 4
        assert results == [(i, 1000.0 * sum(range(i % 4, i + 1, 4))) for i in range(400)]

    def test_dft_writes_into_out(self):
        field = prime_field(211)
        v = np.random.default_rng(3).normal(size=(5, 211)) + 0j
        buf = np.empty((5, 211), dtype=np.complex128)
        assert field.dft(v, out=buf) is buf
        assert np.array_equal(buf, field.dft(v))
        assert field.dft(buf, out=buf) is buf  # in place, as the workers use it
        assert np.array_equal(buf, field.dft(field.dft(v)))


class TestEngineEquivalence:
    @pytest.mark.parametrize("p", [11, 17, 31])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_three_routes_agree(self, p, d):
        rng = np.random.default_rng(100 * p + d)
        for _ in range(5):
            v = random_unit_vector(p, rng)
            oracle = gowers_oracle(v, d)
            assert abs(oracle - gowers_recursive(v, d)) <= 1e-9
            assert abs(oracle - gowers_accelerated(v, d)) <= 1e-9

    @pytest.mark.parametrize("p, d", [(3, 5), (5, 4), (7, 4)])
    def test_oracle_accepts_large_norms(self, p, d):
        # U_d of these values reaches ~1e17, so rounding leaves an imaginary
        # part far above any absolute tolerance but tiny relative to U_d.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            v = 3 * (rng.normal(size=p) + 1j * rng.normal(size=p))
            assert gowers_oracle(v, d) == pytest.approx(gowers_recursive(v, d), rel=1e-12)


class TestNormProperties:
    def test_gowers_norm_of_unit_constant(self):
        c = np.exp(0.7j)
        v = np.full(31, c, dtype=np.complex128)
        for d in (1, 2, 3):
            assert abs(gowers_norm(v, d) - 1) <= 1e-10

    def test_legendre_poly_norm_strictly_inside_unit_interval(self, field101):
        v = legendre_poly_trace((1, 1, 0, 1), field101).values
        n = gowers_norm(v, 2, field101)
        assert 0 < n < 1

    @pytest.mark.parametrize("p", [31, 101])
    def test_monotonicity(self, p):
        rng = np.random.default_rng(p)
        for _ in range(3):
            v = random_unit_vector(p, rng)
            norms = [gowers_norm(v, d) for d in (1, 2, 3)]
            assert norms[0] <= norms[1] + 1e-8
            assert norms[1] <= norms[2] + 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    def test_modulation_invariance(self, d, field101):
        p = 101
        rng = np.random.default_rng(40 + d)
        v = random_unit_vector(p, rng)
        base = gowers_accelerated(v, d, field101)
        for _ in range(10):
            coeffs = [0] + [int(rng.integers(0, p)) for _ in range(d - 1)]
            modulated = v * poly_phase(coeffs, p)
            assert abs(gowers_accelerated(modulated, d, field101) - base) <= 1e-8

    @pytest.mark.parametrize("d", [2, 3])
    def test_affine_invariance(self, d, field101):
        p = 101
        rng = np.random.default_rng(50 + d)
        v = random_unit_vector(p, rng)
        base = gowers_accelerated(v, d, field101)
        x = np.arange(p, dtype=np.int64)
        for a, b in [(1, 3), (2, 0), (45, 77), (100, 1)]:
            composed = v[(a * x + b) % p]
            assert abs(gowers_accelerated(composed, d, field101) - base) <= 1e-8

    @pytest.mark.parametrize("p", [11, 31, 101])
    def test_polynomial_phase_exactness(self, p):
        cases = {0: (0,), 1: (0, 3), 2: (0, 1, 1), 3: (0, 2, 0, 1)}
        for deg, coeffs in cases.items():
            v = poly_phase(coeffs, p)
            for d in range(deg + 1, 5):
                u_d = gowers_accelerated(v, d)
                assert abs(u_d - 1) <= 1e-9

    def test_nonnegativity_on_random_inputs(self):
        rng = np.random.default_rng(9)
        for p in (11, 31):
            v = rng.normal(size=p) + 1j * rng.normal(size=p)
            for d in (1, 2, 3):
                assert gowers_oracle(v, d) >= 0
                assert gowers_recursive(v, d) >= 0

    def test_clamp_behavior(self):
        assert _finalize(-0.5e-9, 1e-9) == 0.0
        with pytest.raises(ArithmeticError):
            _finalize(-1e-6, 1e-9)
        assert _finalize(-5e-9, 1e-8) == 0.0
        with pytest.raises(ArithmeticError):
            _finalize(-5e-9, 1e-9)


class TestEvaluate:
    def test_engine_dispatch_and_fields(self, field101):
        table = kloosterman_trace(field101)
        for oracle, d in ((gowers_oracle, 1), (gowers_recursive, 2)):
            u_d = evaluate(table, d)
            assert type(u_d) is float
            assert u_d == pytest.approx(oracle(table.values, d), abs=1e-12)
            assert gowers_norm(table.values, d, field101) == pytest.approx(u_d ** (1 / 2**d))

    def test_trivial_bound_checked_for_family_tables(self, field101):
        # rank 2 families must satisfy U_d <= 2^(2^d); run all and rely on
        # the internal assertion raising on violation.
        for table in (kloosterman_trace(field101), legendre_curve_trace(field101)):
            for d in (1, 2, 3):
                assert evaluate(table, d) <= table.descriptor.rank ** (2**d) + 1e-6

    def test_trivial_bound_violation_refused(self, monkeypatch, field101):
        monkeypatch.setattr(norms, "gowers_accelerated", lambda *args: 2.0)
        with pytest.raises(ArithmeticError, match=r"trivial bound violated: U_2 = 2.0"):
            evaluate(inverse_phase_trace(field101), 2)  # rank 1: U_2 <= 1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_table_checked_twice(self, monkeypatch, field101, d):
        # Once by evaluate, once by gowers_accelerated; u1 is not called at d = 1.
        checked = []
        finite_values = norms._finite_values

        def spy(*args, **kwargs):
            checked.append(d)
            return finite_values(*args, **kwargs)

        monkeypatch.setattr(norms, "_finite_values", spy)
        evaluate(kloosterman_trace(field101), d)
        assert len(checked) == 2

    @pytest.mark.parametrize("route", [gowers_oracle, gowers_recursive, gowers_accelerated],
                             ids=["oracle", "recursive", "accelerated"])
    def test_non_finite_values_rejected(self, route):
        for bad in (np.nan, np.inf):
            v = np.ones(11, dtype=np.complex128)
            v[3] = bad
            with pytest.raises(ValueError, match="finite"):
                route(v, 2)

    @pytest.mark.parametrize("route", [gowers_oracle, gowers_recursive, gowers_accelerated],
                             ids=["oracle", "recursive", "accelerated"])
    @pytest.mark.parametrize("shape", [(7, 7), (7, 1)], ids=["7x7", "7x1"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_values_of_another_shape_rejected(self, route, shape, d):
        # No field gives p, yet a table must still be one-dimensional.
        with pytest.raises(ValueError, match="shape"):
            route(np.ones(shape), d)

    @pytest.mark.parametrize("route, d", [
        (gowers_oracle, 2), (gowers_recursive, 1), (gowers_recursive, 2),
        (gowers_accelerated, 1), (gowers_accelerated, 2),
    ], ids=["oracle-2", "recursive-1", "recursive-2", "accelerated-1", "accelerated-2"])
    def test_empty_table_rejected(self, route, d):
        # Not a reshape, division or DFT-length error, nor a nan from an empty
        # mean; u1's refusal is in TestU1.
        with pytest.raises(ValueError, match=r"values must have shape \(p,\), got \(0,\)"):
            route(np.array([]), d)

    def test_non_positive_work_cap_refused_at_d1(self, field101):
        with pytest.raises(ValueError, match="work_cap must be finite and positive, got -3"):
            evaluate(kloosterman_trace(field101), 1, work_cap=-3)

    def test_accelerated_request_at_d1_uses_mean_formula(self, field101):
        ones = FamilyDescriptor(family="const", label="const", rank=1, conductor=1)
        assert evaluate(TraceTable(field101, np.ones(101), ones), 1) == pytest.approx(1.0)
