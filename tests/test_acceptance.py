"""Acceptance gate: every shipped guarantee, one criterion per test.

Each test prints one ``[ACCEPTANCE n] name: PASS/FAIL`` line (run with
``pytest -s`` to see the lines on passing runs) and enforces the stated
tolerances and runtime budgets.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gowersff import (
    fourier_trace,
    gowers_accelerated,
    gowers_norm,
    gowers_oracle,
    gowers_recursive,
    inverse_phase_trace,
    kloosterman_direct,
    kloosterman_trace,
    legendre_curve_integers,
    legendre_curve_point_count,
    legendre_curve_trace,
    legendre_poly_trace,
    parse_family,
    phase_correlation,
    prime_field,
    random_baseline,
    scan_obstructions,
    scan_primes,
    decompose,
    u1,
)
from gowersff.cli import main
from conftest import poly_phase, random_unit_vector

GRID_PRIMES = (101, 211, 499, 997)
GRID_FAMILIES = (
    "legendre_poly:1,1,0,1",
    "inverse_phase",
    "kloosterman",
    "legendre_curve",
)

# Below this, u_d * p is numerical zero: the norm vanishes identically
# (e.g. U_1 of mean-zero families) and a 997/101 ratio carries no drift
# information.
ZERO_FLOOR = 1e-9


@contextmanager
def criterion(num: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE {num}] {name}: FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"[ACCEPTANCE {num}] {name}: PASS ({elapsed:.1f}s)", flush=True)


@pytest.fixture(scope="module")
def grid_records():
    records = {}
    for family in GRID_FAMILIES:
        spec = parse_family(family)
        for d in (1, 2, 3):
            recs, errors = scan_primes(spec, d, GRID_PRIMES)
            assert not errors, errors
            for rec in recs:
                records[(family, d, rec.p)] = rec
    return records


def test_criterion_1_engine_equivalence():
    with criterion(1, "engine equivalence (oracle vs recursive vs accelerated)"):
        start = time.perf_counter()
        for p in (11, 17, 31):
            rng = np.random.default_rng(p)
            for d in (1, 2, 3):
                for _ in range(20):
                    v = random_unit_vector(p, rng)
                    oracle = gowers_oracle(v, d)
                    assert abs(oracle - gowers_recursive(v, d)) <= 1e-9
                    if d >= 2:
                        assert abs(oracle - gowers_accelerated(v, d)) <= 1e-9
        assert time.perf_counter() - start <= 60


def test_criterion_2_exact_laws():
    with criterion(2, "exact laws (U_1 values; pure phases at high d)"):
        start = time.perf_counter()
        for p in (101, 499, 997):
            F = prime_field(p)
            assert u1(kloosterman_trace(F).values) <= 1e-10
            assert abs(u1(inverse_phase_trace(F).values) - 1 / p**2) <= 1e-12
        phases = {0: (0,), 1: (0, 3), 2: (0, 1, 1), 3: (0, 2, 0, 1)}
        for p in (11, 31, 101):
            for deg, coeffs in phases.items():
                v = poly_phase(coeffs, p)
                for d in range(deg + 1, 5):
                    u_d = gowers_accelerated(v, d)
                    assert abs(u_d - 1) <= 1e-9
        assert time.perf_counter() - start <= 60


def test_criterion_3_explicit_bounds(grid_records):
    with criterion(3, "explicit per-family bounds hold on the full grid"):
        start = time.perf_counter()
        assert len(grid_records) == 48
        for (family, d, p), rec in grid_records.items():
            assert rec.bound_satisfied, (family, d, p, rec.u_d, rec.bound)
            assert rec.u_d <= rec.bound_constant / p + 1e-12
        assert time.perf_counter() - start <= 600


def test_criterion_4_scaling_visibility(grid_records):
    with criterion(4, "U_d * p bounded and drift-free across the sweep"):
        for rec in grid_records.values():
            assert rec.u_d_times_p <= 1e3, rec
        for family in GRID_FAMILIES:
            for d in (1, 2, 3):
                lo = grid_records[(family, d, 101)].u_d_times_p
                hi = grid_records[(family, d, 997)].u_d_times_p
                if lo < ZERO_FLOOR and hi < ZERO_FLOOR:
                    continue  # identically vanishing norm: no drift to measure
                ratio = hi / lo
                assert 1e-3 < ratio < 1e3, (family, d, lo, hi)
        baseline = random_baseline(101, 2, trials=50, seed=1)
        assert 0.1 < baseline.mean_u_d_times_p < 50


def test_criterion_5_cross_construction_identities():
    with criterion(5, "Fourier and point-count identities across constructions"):
        for p in (101, 499):
            F = prime_field(p)
            lhs = fourier_trace(inverse_phase_trace(F)).values
            rhs = -kloosterman_trace(F).values
            assert np.abs(lhs - rhs).max() <= 1e-9
        F101 = prime_field(101)
        a = legendre_curve_point_count(F101)
        b = legendre_curve_integers(F101)
        assert np.array_equal(a, b)
        F499 = prime_field(499)
        direct = kloosterman_direct(F499)
        transform = kloosterman_trace(F499).values
        assert np.abs(direct - transform).max() <= 1e-8


def test_criterion_6_invariance_suite():
    with criterion(6, "modulation and affine invariance, trivial bound, monotonicity"):
        start = time.perf_counter()
        p = 101
        F = prime_field(p)
        rng = np.random.default_rng(6)
        x = np.arange(p, dtype=np.int64)

        for d in (2, 3):
            v = random_unit_vector(p, rng)
            base = gowers_accelerated(v, d, F)
            for _ in range(10):
                coeffs = [0] + [int(rng.integers(0, p)) for _ in range(d - 1)]
                modulated = v * poly_phase(coeffs, p)
                assert abs(gowers_accelerated(modulated, d, F) - base) <= 1e-8
            for _ in range(5):
                a = int(rng.integers(1, p))
                b = int(rng.integers(0, p))
                composed = v[(a * x + b) % p]
                assert abs(gowers_accelerated(composed, d, F) - base) <= 1e-8

        tables = [
            legendre_poly_trace((1, 1, 0, 1), F),
            inverse_phase_trace(F),
            kloosterman_trace(F),
            legendre_curve_trace(F),
        ]
        for table in tables:
            r = table.descriptor.rank
            for d in (1, 2, 3):
                u_d = gowers_accelerated(table.values, d, F)
                assert u_d <= r ** (2**d) + 1e-6

        for q in (31, 101):
            for _ in range(5):
                v = random_unit_vector(q, rng)
                norms = [gowers_norm(v, d) for d in (1, 2, 3)]
                assert norms[0] <= norms[1] + 1e-8
                assert norms[1] <= norms[2] + 1e-8
        assert time.perf_counter() - start <= 120


def test_criterion_7_inverse_probe_recovery():
    with criterion(7, "planted-phase recovery, brute-force scan identity, residual"):
        p = 101
        F = prime_field(p)
        rng = np.random.default_rng(7)
        recovered = 0
        for _ in range(20):
            mag = 0.6 + 0.4 * rng.random()
            beta = mag * np.exp(2j * np.pi * rng.random())
            coeffs = (0, int(rng.integers(0, p)), int(rng.integers(0, p)))
            g = 0.1 * rng.random(p) * np.exp(2j * np.pi * rng.random(p))
            v = beta * poly_phase(coeffs, p) + g
            comps = scan_obstructions(v, 3, 0.4, F)
            if comps and comps[0].coeffs == coeffs and abs(comps[0].beta - beta) <= 0.11:
                recovered += 1
        assert recovered == 20

        for q in (7, 11, 13):
            Fq = prime_field(q)
            rngq = np.random.default_rng(q)
            v = random_unit_vector(q, rngq)
            for d in (2, 3):
                scanned = scan_obstructions(v, d, 0.15, Fq)
                brute = []
                for tail in itertools.product(range(q), repeat=d - 1):
                    cs = (0,) + tail
                    b = phase_correlation(v, cs, Fq)
                    if abs(b) >= 0.15:
                        brute.append((cs, b))
                brute.sort(key=lambda t: (-abs(t[1]), t[0]))
                assert [c.coeffs for c in scanned] == [cs for cs, _ in brute]
                for comp, (_, b) in zip(scanned, brute):
                    assert abs(comp.beta - b) <= 1e-10

        v = kloosterman_trace(F).values + poly_phase((0, 0, 1), p)
        dec = decompose(v, 3, 0.5, F)
        assert [c.coeffs for c in dec.components] == [(0, 0, 1)]
        residual_u3 = gowers_accelerated(dec.t1, 3, F)
        assert residual_u3 * p <= 100


def test_criterion_8_reproducibility(tmp_path, capsys):
    with criterion(8, "verify --stable-output is byte-identical across runs"):
        outputs = []
        for name in ("first.csv", "second.csv"):
            path = tmp_path / name
            code = main(["verify", "--stable-output", "--output", str(path)])
            captured = capsys.readouterr()
            assert code == 0, captured.out
            outputs.append((path.read_bytes(), captured.out))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
