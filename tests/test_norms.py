import itertools
import json
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gowersff import (
    FamilyDescriptor,
    PrimeField,
    TraceTable,
    WorkCapExceeded,
    evaluate,
    gowers_accelerated,
    gowers_norm,
    gowers_oracle,
    gowers_recursive,
    inverse_phase_trace,
    is_prime,
    kloosterman_trace,
    legendre_curve_trace,
    legendre_poly_trace,
    prime_field,
    u1,
    xi,
)
from gowersff import field as field_module
from gowersff import norms
from gowersff.norms import _finalize, _orbits
from conftest import SmallPowersOnly, poly_phase, random_unit_vector

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


class TestXi:
    def test_h_zero_gives_squared_modulus(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=31) + 1j * rng.normal(size=31)
        assert np.abs(xi(v, 0) - np.abs(v) ** 2).max() <= 1e-12

    def test_linear_phase_gives_constant(self, field101):
        c = 7
        v = field101.char_table[(c * np.arange(101)) % 101]
        for h in (1, 5, 60):
            out = xi(v, h)
            expected = field101.char_table[(c * h) % 101]
            assert np.abs(out - expected).max() <= 1e-12

    def test_commutes(self):
        rng = np.random.default_rng(1)
        v = random_unit_vector(101, rng)
        for h, hp in [(3, 11), (50, 99), (0, 42)]:
            a = xi(xi(v, hp), h)
            b = xi(xi(v, h), hp)
            assert np.abs(a - b).max() <= 1e-12


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
        # C(599999, 99998) rows: its exact value has ~5e5 bits and no float.
        comb = math.comb

        def small_comb(n, k):
            assert k <= 10**4, f"math.comb({n}, {k}) was computed"
            return comb(n, k)

        monkeypatch.setattr(math, "comb", small_comb)
        with pytest.raises(WorkCapExceeded, match="U_100000 at p = 1000003: .* = inf exceeds"):
            gowers_accelerated(np.ones(1000003), 100000)

    def test_estimates_stay_exact_up_to_the_float_range(self):
        assert norms._power(2, 1023) == 2**1023 and norms._power(7, 0) == 1
        assert norms._comb(1100, 550) == math.comb(1100, 550)  # ~2^1094
        with pytest.raises(OverflowError):
            norms._power(SmallPowersOnly(101), 10**6)
        with pytest.raises(OverflowError):
            norms._comb(2000, 1000)  # ~2^1994

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
            res = evaluate(table, d)
            assert res.u_d == pytest.approx(oracle(table.values, d), abs=1e-12)
            assert res.p == 101 and res.d == d
            assert res.u_d_times_p == pytest.approx(res.u_d * 101)
            assert res.norm == pytest.approx(res.u_d ** (1 / 2**d))
            assert res.elapsed >= 0

    def test_trivial_bound_checked_for_family_tables(self, field101):
        # rank 2 families must satisfy U_d <= 2^(2^d); run all and rely on
        # the internal assertion raising on violation.
        for table in (kloosterman_trace(field101), legendre_curve_trace(field101)):
            for d in (1, 2, 3):
                res = evaluate(table, d)
                assert res.u_d <= table.descriptor.rank ** (2**d) + 1e-6

    def test_trivial_bound_violation_refused(self, monkeypatch, field101):
        monkeypatch.setattr(norms, "gowers_accelerated", lambda *args: 2.0)
        with pytest.raises(ArithmeticError, match=r"trivial bound violated: U_2 = 2.0"):
            evaluate(inverse_phase_trace(field101), 2)  # rank 1: U_2 <= 1

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

    def test_accelerated_request_at_d1_uses_mean_formula(self, field101):
        ones = FamilyDescriptor(family="const", label="const", rank=1, swan={})
        res = evaluate(TraceTable(field101, np.ones(101), ones), 1)
        assert res.u_d == pytest.approx(1.0)
