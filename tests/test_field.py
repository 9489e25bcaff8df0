import json
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gowersff import (
    PrimeField,
    gowers_accelerated,
    inverse_phase_trace,
    is_prime,
    kloosterman_trace,
    legendre_poly_trace,
    prime_field,
)
from gowersff import field as field_module
from conftest import euler_legendre

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"
ODD_PRIMES_TO_400 = [p for p in range(3, 401) if is_prime(p)]


class TestIsPrime:
    def test_small_values(self):
        sieve = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97}
        for n in range(-2, 100):
            assert is_prime(n) == (n in sieve)
        assert is_prime(101) and is_prime(997) and is_prime(2**31 - 1)

    def test_carmichael_and_strong_pseudoprimes(self):
        for n in (561, 1105, 1729, 25326001, 3215031751):
            assert not is_prime(n)

    def test_agrees_with_a_sieve_to_20000(self):
        n = 20000
        sieve = np.ones(n, dtype=bool)
        sieve[:2] = False
        for q in range(2, math.isqrt(n) + 1):
            if sieve[q]:
                sieve[q * q :: q] = False
        assert [is_prime(k) for k in range(n)] == sieve.tolist()


class TestPrimeField:
    def test_rejects_composite_and_two(self):
        with pytest.raises(ValueError):
            PrimeField(9)
        with pytest.raises(ValueError):
            PrimeField(2)

    def test_range_refused_before_the_primality_test(self, monkeypatch):
        def no_test(n):
            raise AssertionError(f"is_prime({n}) was called")

        monkeypatch.setattr(field_module, "is_prime", no_test)
        for p in (2**31, 2**31 + 11, 2**89 - 1, 10**400 + 1):
            with pytest.raises(ValueError, match="supported range"):
                PrimeField(p)

    def test_inverse_table_exhaustive_p997(self, field997):
        inv = field997.inverse_values
        x = np.arange(1, 997, dtype=np.int64)
        assert np.all(inv[x] * x % 997 == 1)

    def test_inverse_involution_exhaustive_p997(self, field997):
        inv = field997.inverse_values
        assert np.array_equal(inv[inv], np.arange(997))

    def test_repr(self):
        assert repr(prime_field(7)) == "PrimeField(7)"

    def test_usable_cores_without_affinity(self, monkeypatch):
        monkeypatch.delattr(field_module.os, "sched_getaffinity", raising=False)
        assert field_module._usable_cores() == (field_module.os.cpu_count() or 1)

    def test_primitive_root_generates(self, field101):
        g = field101.primitive_root
        seen = set()
        x = 1
        for _ in range(100):
            seen.add(x)
            x = x * g % 101
        assert seen == set(range(1, 101))


def _check_power_tables(p: int, xs) -> None:
    """inverse_values at xs against modular multiplication (no shared code)."""
    F = prime_field(p)
    xs = np.asarray(xs, dtype=np.int64)
    assert F.inverse_values[0] == 0
    assert np.all(F.inverse_values[xs] * xs % p == 1)


class TestPowerTables:
    @given(st.sampled_from([p for p in range(3, 10**4) if is_prime(p)]))
    @example(3)
    @settings(max_examples=30, deadline=None)
    def test_exhaustive_small_primes(self, p):
        _check_power_tables(p, range(1, p))

    def test_sampled_at_p1000003(self):
        _check_power_tables(1000003, np.random.default_rng(3).integers(1, 1000003, size=2000))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 101, 65537])
    def test_powers_by_doubling_are_exact(self, p):
        F = PrimeField(p)
        g = F.primitive_root
        assert F._powers().tolist() == [pow(g, k, p) for k in range(p - 1)]

    def test_powers_permute_the_units_at_p1000003(self):
        pw = PrimeField(1000003)._powers()
        assert pw.dtype == np.int64
        assert np.array_equal(np.sort(pw), np.arange(1, 1000003))


class TestModInverse:
    def test_identity(self):
        assert prime_field(7).inverse_values[1] == 1

    def test_two_mod_seven(self):
        assert prime_field(7).inverse_values[2] == 4  # 2*4 = 8 = 1 mod 7

    def test_zero_maps_to_zero(self, field101):
        assert field101.inverse_values[0] == 0


class TestLegendreSymbol:
    def test_zero_and_one(self, field101):
        assert field101.legendre_table[0] == 0
        assert field101.legendre_table[1] == 1

    def test_three_mod_seven_vs_euler(self):
        assert prime_field(7).legendre_table[3] == euler_legendre(3, 7) == -1

    @pytest.mark.parametrize("p", [61, 101, 499])
    def test_agrees_with_euler_criterion(self, p):
        table = prime_field(p).legendre_table
        for a in range(p):
            assert table[a] == euler_legendre(a, p)

    def test_multiplicativity_exhaustive_p61(self):
        sym = prime_field(61).legendre_table
        for a in range(1, 61):
            for b in range(1, 61):
                assert sym[a] * sym[b] == sym[a * b % 61]


class TestAdditiveCharacter:
    def test_zero_is_one(self, field101):
        assert complex(field101.char_table[0]) == 1 + 0j

    def test_conjugate_symmetry_exact(self, field101):
        t = field101.char_table
        for a in range(1, 101):
            assert t[101 - a] == np.conj(t[a])  # bitwise, by construction

    def test_complete_sum_vanishes(self, field997):
        assert abs(field997.char_table.sum()) <= 1e-12

    def test_reads_come_from_one_table(self, field101):
        a = 17
        assert complex(field101.char_table[a % field101.p]) == complex(field101.char_table[a])

    def test_unit_modulus(self, field499):
        assert np.abs(np.abs(field499.char_table) - 1).max() <= 1e-15


class TestDft:
    def test_constant_vector(self, field101):
        hat = field101.dft(np.ones(101))
        assert abs(hat[0] - 1) <= 1e-10
        assert np.abs(hat[1:]).max() <= 1e-10

    def test_single_mode(self, field101):
        c = 17
        v = field101.char_table[(c * np.arange(101)) % 101]
        hat = field101.dft(v)
        assert abs(hat[c] - 1) <= 1e-10
        mask = np.ones(101, dtype=bool)
        mask[c] = False
        assert np.abs(hat[mask]).max() <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from(ODD_PRIMES_TO_400),
        rows=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(p=499, rows=0, seed=42)
    def test_fast_agrees_with_direct(self, p, rows, seed):
        """dft matches dft_direct on (p,) and (k, p)."""
        F = prime_field(p)
        shape = (p,) if rows == 0 else (rows, p)
        rng = np.random.default_rng(seed)
        v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        hat = F.dft(v)
        assert hat.shape == shape
        assert np.abs(hat - F.dft_direct(v)).max() <= 1e-12

    def test_length_mismatch_rejected(self, field101):
        with pytest.raises(ValueError):
            field101.dft(np.ones(100))
        with pytest.raises(ValueError):
            field101.dft_direct(np.ones(100))

    @pytest.mark.parametrize("p", [101, 499, 997])
    def test_parseval(self, p):
        F = prime_field(p)
        rng = np.random.default_rng(p)
        v = rng.normal(size=p) + 1j * rng.normal(size=p)
        lhs = (np.abs(v) ** 2).mean()
        rhs = (np.abs(F.dft(v)) ** 2).sum()
        assert abs(lhs - rhs) <= 1e-9 * lhs

    def test_batched_rows_match_single(self, field101):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 101)) + 1j * rng.normal(size=(5, 101))
        batched = field101.dft(m)
        for i in range(5):
            assert np.abs(batched[i] - field101.dft(m[i])).max() <= 1e-12


class TestHermitianRoute:
    """From p = 2^17 on, a single row that is exactly the inverse-phase row, a
    Hermitian row, takes Rader's algorithm as two half-length real
    self-convolutions; every other input is numpy's FFT."""

    @staticmethod
    def numpy_rows(field):
        """A random exactly Hermitian row and a real even row: numpy's route."""
        p = field.p
        rng = np.random.default_rng(p)
        head = rng.normal(size=p // 2) + 1j * rng.normal(size=p // 2)
        return {
            "hermitian": np.concatenate([[rng.normal()], head, np.conj(head[::-1])]),
            "real_even": legendre_poly_trace((1, 0, 1), field).values,  # ((x^2 + 1)/p)
        }

    @staticmethod
    def fft_lengths(monkeypatch):
        """The lengths of the rows passed to np.fft.fft from here on."""
        lengths, fft = [], np.fft.fft

        def spy(a, *args, **kwargs):
            lengths.append(np.shape(a)[-1])
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", spy)
        return lengths

    @pytest.mark.parametrize("p", [131101, 262147, 1000003, 1049599])
    def test_agrees_with_numpy_and_the_direct_sum(self, p):
        # 1049599 pads its half-length convolutions to 2^21, the others to 2^18 and 2^20.
        field = PrimeField(p)
        v = inverse_phase_trace(field).values
        hat = field.dft(v)
        assert not hat.imag.any()
        assert np.abs(hat - np.fft.fft(v, norm="forward")).max() <= 1e-15
        # dft_direct's sum at 16 sampled frequencies: (1/p) sum_x v[x] e(-xt/p)
        x = np.arange(p)
        for t in np.random.default_rng(p + 1).integers(0, p, 16):
            assert abs(hat[t] - np.vdot(field.char_table[x * t % p], v) / p) <= 1e-15, t

    def test_no_length_p_transform_runs(self, monkeypatch):
        p = 131101
        field = PrimeField(p)
        v = inverse_phase_trace(field).values
        lengths = self.fft_lengths(monkeypatch)
        field.dft(v)
        assert p not in lengths
        for u in self.numpy_rows(field).values():  # Hermitian, but not the inverse-phase row
            field.dft(u)
        assert lengths == [p, p]

    def test_kloosterman_table_takes_the_route(self, monkeypatch):
        # The route reads the inverse-phase row's exact values: a table that
        # drifted from them would fall back to Bluestein's algorithm unseen.
        lengths = self.fft_lengths(monkeypatch)
        kloosterman_trace(PrimeField(131101))
        assert 131101 not in lengths

    def test_other_inputs_take_numpy_bit_for_bit(self):
        p = 131101
        field = PrimeField(p)
        v = inverse_phase_trace(field).values
        inputs = list(self.numpy_rows(field).values())
        for x in (7, p - 7):  # one in each half of the log order, since g^((p - 1)/2) = -1
            broken = v.copy()
            broken[x] += 1e-9
            inputs.append(broken)
        imaginary_zero = v.copy()
        imaginary_zero[0] += 1j
        inputs += [imaginary_zero, np.stack([v, v]), v[None]]
        for u in inputs:
            assert np.array_equal(field.dft(u), np.fft.fft(u, axis=-1, norm="forward"))
        below = PrimeField(131071)  # 2^17 - 1
        v = inverse_phase_trace(below).values
        assert np.array_equal(below.dft(v), np.fft.fft(v, norm="forward"))

    def test_one_rfft_per_part(self, monkeypatch):
        # X and -Y are the self-convolutions of Re beta and Im beta: one rfft
        # each, squared in place.
        field = PrimeField(131101)
        v = inverse_phase_trace(field).values
        rfft, calls = np.fft.rfft, []

        def spy(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy)
        field.dft(v)
        assert calls == [(65550,), (65550,)]

    def test_one_and_two_workers_agree_bit_for_bit(self, monkeypatch):
        field = PrimeField(262147)
        v = inverse_phase_trace(field).values
        spectra = []
        for workers in (1, 2):
            monkeypatch.setattr(field_module, "_WORKERS", workers)
            spectra.append(field.dft(v))
        assert np.array_equal(*spectra)

    def test_out(self):
        field = PrimeField(131101)
        v = inverse_phase_trace(field).values
        expected = field.dft(v)
        out = np.full(field.p, np.nan + 1j, np.complex128)
        assert field.dft(v, out=out) is out
        assert np.array_equal(out, expected)
        w = v.copy()
        assert field.dft(w, out=w) is w
        assert np.array_equal(w, expected) and not w.imag.any()
        for bad in (np.empty(field.p + 1, np.complex128), np.empty(field.p)):
            with pytest.raises(ValueError, match="out must be complex128"):
                field.dft(v, out=bad)

    def test_kloosterman_u2_matches_the_reference(self):
        p = 1000003
        expected = json.loads(REFERENCES.read_text())["u_d"][f"kloosterman|2|{p}"]
        field = PrimeField(p)
        u_2 = gowers_accelerated(kloosterman_trace(field).values, 2, field)
        assert u_2 == pytest.approx(expected, rel=1e-12)


class TestAutocorrelation:
    @settings(max_examples=60, deadline=None)
    @given(
        p=st.sampled_from([p for p in ODD_PRIMES_TO_400 if p <= 211]),
        real=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(p=3, real=True, seed=0)
    @example(p=3, real=False, seed=0)
    def test_matches_cyclic_sum(self, p, real, seed):
        """c(h) = sum_x v[x + h] conj v[x], summed over np.roll, real for a real v."""
        rng = np.random.default_rng(seed)
        v = rng.normal(size=p) if real else rng.normal(size=p) + 1j * rng.normal(size=p)
        c = prime_field(p).correlation(v)
        direct = np.array([np.sum(np.roll(v, -h) * np.conj(v)) for h in range(p)])
        assert c.shape == (p,)
        assert np.isrealobj(c) == real
        assert np.abs(c - direct).max() <= 1e-12 * np.sum(np.abs(v) ** 2)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_two_workers_match_one_above_the_threshold(self, monkeypatch, kind):
        # (p + 1)/2 >= _CHUNK_VALUES = 2^17, so the character table and the
        # inverses are built in two parts too; the halves of v pad to 2^19 points.
        p = 262147
        rng = np.random.default_rng(p)
        v = rng.normal(size=p) + (1j * rng.normal(size=p) if kind == "complex" else 0)
        started = []

        class Spy(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Spy)
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(field_module, "_WORKERS", workers)
            field = PrimeField(p)
            results.append((field.char_table, field.inverse_values, field.correlation(v)))
        assert len(started) == 4  # the table, the inverses, the forward and the inverse transforms
        for one, two in zip(*results):
            assert np.array_equal(one, two)
        table, inv, c = results[1]
        assert np.array_equal(table[:0:-1], np.conj(table[1:]))  # e(-a/p) = conj e(a/p), exactly
        assert np.all(np.arange(1, p) * inv[1:] % p == 1)
        hs = np.r_[0, 1, p // 2, p // 2 + 1, p - 1, rng.integers(0, p, 15)]
        direct = np.array([np.dot(np.roll(v, -h), np.conj(v)) for h in hs])
        assert np.abs(c[hs] - direct).max() <= 1e-12 * np.sum(np.abs(v) ** 2)

    def test_below_the_threshold_no_thread_starts(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(field_module, "_WORKERS", 2)
        monkeypatch.setattr(threading, "Thread", no_thread)
        for p in (101, 65521):  # 65521 pads to 2^16, under _CHUNK_VALUES
            field = PrimeField(p)
            v = np.cos(np.arange(p))
            field.correlation(v)
            field.correlation(v + 1j)
        with pytest.raises(AssertionError, match="a thread was started"):
            PrimeField(65537).correlation(np.ones(65537))  # pads to 2^17

    def test_helper_error_reaches_the_caller(self, monkeypatch):
        rfft = np.fft.rfft

        def failing(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("helper")
            return rfft(*args, **kwargs)

        monkeypatch.setattr(field_module, "_WORKERS", 2)
        monkeypatch.setattr(np.fft, "rfft", failing)
        with pytest.raises(MemoryError, match="helper"):
            prime_field(262147).correlation(np.ones(262147))

    @pytest.mark.parametrize("shape", [(100,), (101, 1), (1, 101)], ids=["100", "101x1", "1x101"])
    def test_shape_mismatch_rejected(self, field101, shape):
        with pytest.raises(ValueError, match="shape"):
            field101.correlation(np.ones(shape))
