import dataclasses
import itertools
import threading

import numpy as np
import pytest

from gowersff import norms, probe
from gowersff.field import PrimeField
from gowersff import (
    WorkCapExceeded,
    decompose,
    dichotomy_report,
    gowers_accelerated,
    inverse_phase_trace,
    kloosterman_trace,
    legendre_curve_trace,
    max_phase_correlation,
    mixed_ask_trace,
    phase_correlation,
    prime_field,
    probe_report,
    scan_obstructions,
)
from gowersff.traces import MultiplicativeCharacter
from conftest import poly_phase, random_unit_vector


def brute_force_components(values, d, threshold, field):
    """Reference scan: loop over every zero-constant P of degree <= d-1."""
    p = field.p
    out = []
    for tail in itertools.product(range(p), repeat=d - 1):
        coeffs = (0,) + tail
        beta = phase_correlation(values, coeffs, field)
        if abs(beta) >= threshold:
            out.append((coeffs, beta))
    out.sort(key=lambda t: (-abs(t[1]), t[0]))
    return out


class TestPhaseCorrelation:
    def test_perfect_correlation(self, field101):
        v = poly_phase((0, 3, 5), 101)
        assert abs(phase_correlation(v, (0, 3, 5), field101) - 1) <= 1e-12

    def test_linear_mismatch_is_exactly_zero(self, field101):
        v = poly_phase((0, 3), 101)
        for other in ((0, 4), (0, 2), (0, 100)):
            assert abs(phase_correlation(v, other, field101)) <= 1e-10

    def test_quadratic_mismatch_is_a_gauss_sum(self, field101):
        # distinct quadratic coefficients leave a weight-1/sqrt(p) sum
        v = poly_phase((0, 0, 1), 101)
        beta = phase_correlation(v, (0, 0, 2), field101)
        assert abs(abs(beta) - 1 / np.sqrt(101)) <= 1e-9

    def test_kloosterman_against_square_phase(self, field101):
        v = kloosterman_trace(field101).values
        assert abs(phase_correlation(v, (0, 0, 1), field101)) < 0.5


class TestScanObstructions:
    def test_planted_quadratic_with_noise(self, field101):
        rng = np.random.default_rng(11)
        noise = 0.05 * np.exp(2j * np.pi * rng.random(101))
        v = 0.8 * poly_phase((0, 0, 1), 101) + noise
        comps = scan_obstructions(v, 3, 0.5, field101)
        assert len(comps) == 1
        assert comps[0].coeffs == (0, 0, 1)
        assert abs(comps[0].beta - 0.8) <= 0.06

    def test_inverse_phase_is_fourier_uniform(self, field101):
        # max |correlation| is a Kloosterman value over sqrt(p) < 0.2
        v = inverse_phase_trace(field101).values
        assert scan_obstructions(v, 2, 0.2, field101) == []

    def test_single_linear_mode(self, field101):
        v = poly_phase((0, 3), 101)
        comps = scan_obstructions(v, 2, 0.9, field101)
        assert len(comps) == 1
        assert comps[0].coeffs == (0, 3)
        assert abs(comps[0].beta - 1) <= 1e-10

    @pytest.mark.parametrize("p", [7, 11, 13])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_brute_force(self, p, d):
        F = prime_field(p)
        rng = np.random.default_rng(10 * p + d)
        v = np.exp(2j * np.pi * rng.random(p))
        threshold = 0.15
        scanned = scan_obstructions(v, d, threshold, F)
        brute = brute_force_components(v, d, threshold, F)
        assert [c.coeffs for c in scanned] == [coeffs for coeffs, _ in brute]
        for comp, (_, beta) in zip(scanned, brute):
            assert abs(comp.beta - beta) <= 1e-10

    def test_threshold_monotonicity(self, field101):
        rng = np.random.default_rng(12)
        v = np.exp(2j * np.pi * rng.random(101))
        low = {c.coeffs for c in scan_obstructions(v, 3, 0.02, field101)}
        high = {c.coeffs for c in scan_obstructions(v, 3, 0.08, field101)}
        assert high <= low

    def test_work_cap_refused(self):
        # 10007^2 rows * 10007 * (4 + log2 p) ~ 1.7e13 is refused before any row is built.
        F = prime_field(10007)
        with pytest.raises(WorkCapExceeded, match="work cap"):
            scan_obstructions(np.ones(10007, dtype=np.complex128), 4, 0.5, F)

    def test_planted_cubic_recovered_at_d4(self, field101):
        v = poly_phase((0, 4, 0, 7), 101)
        assert scan_obstructions(v, 3, 0.5, field101) == []  # invisible to quadratics
        comps = scan_obstructions(v, 4, 0.5, field101)
        assert [c.coeffs for c in comps] == [(0, 4, 0, 7)]
        assert abs(comps[0].magnitude - 1) <= 1e-10
        chi = MultiplicativeCharacter(field101, 0)
        table = mixed_ask_trace(((0, 4, 0, 7), (1,)), ((1,), (1,)), chi, field101)
        assert probe_report(table, 4, 0.5)["branch"] == "phase"

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0, -0.5])
    def test_threshold_must_be_finite_and_positive(self, field101, threshold):
        with pytest.raises(ValueError, match="threshold"):
            scan_obstructions(np.ones(101, dtype=np.complex128), 2, threshold, field101)

    def test_planted_phase_recovery_trials(self):
        p = 101
        F = prime_field(p)
        rng = np.random.default_rng(13)
        for _ in range(8):
            mag = 0.6 + 0.4 * rng.random()
            beta = mag * np.exp(2j * np.pi * rng.random())
            coeffs = (0, int(rng.integers(0, p)), int(rng.integers(0, p)))
            g = 0.1 * rng.random(p) * np.exp(2j * np.pi * rng.random(p))
            v = beta * poly_phase(coeffs, p) + g
            comps = scan_obstructions(v, 3, 0.4, F)
            assert comps[0].coeffs == coeffs
            assert abs(comps[0].beta - beta) <= 0.11


class TestDecompose:
    def test_reconstruction_exact(self, field101):
        rng = np.random.default_rng(14)
        v = np.exp(2j * np.pi * rng.random(101))
        dec = decompose(v, 3, 0.05, field101)
        assert np.abs(dec.t1 + dec.t2 - v).max() <= 1e-12

    def test_kloosterman_plus_square_phase(self, field101):
        v = kloosterman_trace(field101).values + poly_phase((0, 0, 1), 101)
        dec = decompose(v, 3, 0.5, field101)
        assert len(dec.components) == 1
        assert dec.components[0].coeffs == (0, 0, 1)
        assert abs(dec.components[0].beta - 1) <= 0.25
        residual_u3 = gowers_accelerated(dec.t1, 3, field101)
        assert residual_u3 * 101 <= 100

    def test_no_obstruction_passthrough(self, field101):
        v = kloosterman_trace(field101).values
        dec = decompose(v, 2, 0.5, field101)
        assert dec.components == ()
        assert np.abs(dec.t1 - v).max() == 0

    def test_two_exact_fourier_modes(self, field101):
        v = poly_phase((0, 1), 101) + poly_phase((0, 2), 101)
        dec = decompose(v, 2, 0.5, field101)
        assert {c.coeffs for c in dec.components} == {(0, 1), (0, 2)}
        assert np.abs(dec.t1).max() <= 1e-10


class TestDichotomy:
    def test_exact_linear_phase_is_phase_branch(self, field101):
        chi = MultiplicativeCharacter(field101, 0)
        table = mixed_ask_trace(((0, 1), (1,)), ((1,), (1,)), chi, field101)
        report = dichotomy_report(table, 2)
        assert report.branch == "phase"
        assert report.max_correlation >= 0.99

    def test_kloosterman_is_uniform_branch(self):
        table = kloosterman_trace(prime_field(499))
        report = dichotomy_report(table, 2)
        assert report.branch == "uniform"
        assert report.max_correlation < 0.99
        assert report.u_d_times_p <= 1e3

    def test_legendre_curve_is_uniform_branch(self, field101):
        report = dichotomy_report(legendre_curve_trace(field101), 3)
        assert report.branch == "uniform"

    def test_inconclusive_when_ceiling_is_tiny(self, field101):
        report = dichotomy_report(kloosterman_trace(field101), 2, ceiling=1e-6)
        assert report.branch == "inconclusive"

    @pytest.mark.parametrize("d", [1, 4])
    def test_every_d_classified(self, field101, d):
        report = dichotomy_report(kloosterman_trace(field101), d)
        assert report.branch == "uniform"
        assert report.max_correlation < 0.99

    def test_d_restriction(self, field101):
        with pytest.raises(ValueError):
            dichotomy_report(kloosterman_trace(field101), 0)

    @pytest.mark.parametrize("ceiling", [np.nan, np.inf, 0.0])
    def test_ceiling_must_be_finite_and_positive(self, field101, ceiling):
        with pytest.raises(ValueError, match="ceiling"):
            dichotomy_report(kloosterman_trace(field101), 2, ceiling)


class TestProbeReport:
    def test_schema_and_values(self, field101):
        table = kloosterman_trace(field101)
        report = probe_report(table, 2, 0.5)
        assert set(report) == {
            "p", "family", "d", "threshold", "components",
            "residual_u_d", "residual_u_d_times_p", "branch",
        }
        assert report["p"] == 101
        assert report["components"] == []
        assert report["branch"] == "uniform"
        assert report["residual_u_d_times_p"] == pytest.approx(
            gowers_accelerated(table.values, 2, field101) * 101
        )

    def test_component_serialization(self, field101):
        chi = MultiplicativeCharacter(field101, 0)
        table = mixed_ask_trace(((0, 3), (1,)), ((1,), (1,)), chi, field101)
        report = probe_report(table, 2, 0.5)
        assert len(report["components"]) == 1
        comp = report["components"][0]
        assert comp["coeffs"] == [0, 3]
        assert comp["beta_re"] == pytest.approx(1.0, abs=1e-10)


class TestMaxPhaseCorrelation:
    @pytest.mark.parametrize("p", [7, 11, 13])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_brute_force_argmax(self, p, d):
        F = prime_field(p)
        v = np.exp(2j * np.pi * np.random.default_rng(10 * p + d).random(p))
        brute = {(0,) + tail: abs(phase_correlation(v, (0,) + tail, F))
                 for tail in itertools.product(range(p), repeat=d - 1)}
        best, coeffs = max_phase_correlation(v, d, F)
        assert best == pytest.approx(max(brute.values()), abs=1e-12)
        assert brute[coeffs] == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_ties_go_to_the_first_top_then_the_first_b(self, d):
        F = prime_field(11)
        assert max_phase_correlation(np.zeros(11), d, F) == (0.0, (0,) * d)

    def test_d1_is_the_mean(self, field101):
        v = poly_phase((0, 3), 101) + 0.25
        best, coeffs = max_phase_correlation(v, 1, field101)
        assert coeffs == (0,)
        assert best == pytest.approx(0.25, abs=1e-12)


def _composed(table, d, threshold):
    """probe_report built from its parts: decompose, dichotomy, U_d of t1."""
    decomp = decompose(table.values, d, threshold, table.field)
    report = dichotomy_report(table, d)
    residual_u = gowers_accelerated(decomp.t1, d, table.field)
    return {
        "p": table.p, "family": table.descriptor.label, "d": d, "threshold": threshold,
        "components": [{"coeffs": list(c.coeffs), "beta_re": c.beta.real,
                        "beta_im": c.beta.imag} for c in decomp.components],
        "residual_u_d": residual_u,
        "residual_u_d_times_p": residual_u * table.p,
        "branch": report.branch,
    }


def _planted(field, coeffs):
    chi = MultiplicativeCharacter(field, 0)
    return mixed_ask_trace((coeffs, (1,)), ((1,), (1,)), chi, field)


class TestSharedWalk:
    @pytest.mark.parametrize("case", ["planted", "kloosterman", "just_below_threshold"])
    def test_probe_report_equals_its_composition(self, field101, case):
        threshold = 0.5
        if case == "planted":
            table = _planted(field101, (0, 5, 7))
        elif case == "kloosterman":
            table = kloosterman_trace(field101)
        else:  # a phase of magnitude 0.992: over PHASE_PROXY, under the threshold
            table = _planted(field101, (0, 5, 7))
            table = dataclasses.replace(table, values=0.992 * table.values)
            threshold = 0.995
        report = probe_report(table, 3, threshold)
        assert report == _composed(table, 3, threshold)
        if case == "just_below_threshold":
            assert report["branch"] == "phase"
            assert report["components"] == []

    @pytest.mark.parametrize("case, rows", [("kloosterman", 127), ("planted", 203)])
    def test_rows_transformed(self, field101, monkeypatch, case, rows):
        # One walk of 101 tops, which keeps its hits; U_3 once for the table,
        # once more for the residual when a phase is planted.  U_3 transforms the
        # 51 orbit rows of a complex table, and 26 for the real Kloosterman table.
        table = kloosterman_trace(field101) if case == "kloosterman" else _planted(
            field101, (0, 5, 7))
        dft = PrimeField.dft
        seen = []

        def spy(self, v, out=None):
            seen.append(np.shape(v)[0] if np.ndim(v) == 2 else 1)
            return dft(self, v, out)

        monkeypatch.setattr(PrimeField, "dft", spy)
        probe_report(table, 3, 0.5)
        assert sum(seen) == rows

    def test_refusal_comes_before_any_walk(self, field101, monkeypatch):
        def walked(*args, **kwargs):
            raise RuntimeError("walked")

        monkeypatch.setattr(probe, "_correlation_rows", walked)
        table = kloosterman_trace(field101)
        with pytest.raises(ValueError, match="ceiling"):
            probe_report(table, 3, 0.5, ceiling=np.nan)
        with pytest.raises(ValueError, match="threshold"):
            probe_report(table, 3, np.nan)
        # Nothing is left shared from the refused calls: a standalone call walks.
        with pytest.raises(RuntimeError, match="walked"):
            max_phase_correlation(table.values, 3, field101)

    def test_nothing_is_shared_outside_a_probe(self, field101, monkeypatch):
        table = kloosterman_trace(field101)
        probe_report(table, 3, 0.5)
        walks = []
        rows = probe._correlation_rows

        def counted(*args, **kwargs):
            walks.append(1)
            return rows(*args, **kwargs)

        monkeypatch.setattr(probe, "_correlation_rows", counted)
        max_phase_correlation(table.values, 3, field101)
        max_phase_correlation(table.values, 3, field101)
        assert len(walks) == 2


class TestChunkedWalk:
    @pytest.mark.parametrize("p, d", [(1009, 3), (101, 4)])
    def test_worker_count_does_not_change_the_walk(self, monkeypatch, p, d):
        # 1009 tops of 1009 values and 10201 tops of 101 values: several
        # chunks of 2^17 values each.  A planted phase over Kloosterman noise
        # gives the scan one hit to transform again.
        field = prime_field(p)
        coeffs = (0, 5, 7) if d == 3 else (0, 5, 0, 7)
        values = 0.6 * _planted(field, coeffs).values + 0.1 * kloosterman_trace(field).values
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(norms, "_WORKERS", workers)
            results.append((max_phase_correlation(values, d, field),
                            scan_obstructions(values, d, 0.5, field)))
        assert results[0] == results[1]
        (corr, argmax), found = results[0]
        assert argmax == coeffs and [c.coeffs for c in found] == [coeffs]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hits_across_chunks_match_direct_dfts(self, monkeypatch, workers):
        # Flat top a_2 + p a_3: 2809 tops of 53 values, two chunks of 2^17 values.
        p, d, threshold = 53, 4, 0.15
        F = prime_field(p)
        v = random_unit_vector(p, np.random.default_rng(53))
        assert probe._correlation_rows(v, d, F)[0] == 2
        tops = [(a2, a3) for a3 in range(p) for a2 in range(p)]
        beta = F.dft_direct([v * np.conj(poly_phase((0, 0, *top), p)) for top in tops])
        expected = sorted((((0, int(b), *tops[t]), beta[t, b])
                           for t, b in zip(*np.nonzero(np.abs(beta) >= threshold))),
                          key=lambda e: (-abs(e[1]), e[0]))
        monkeypatch.setattr(norms, "_WORKERS", workers)
        found = scan_obstructions(v, d, threshold, F)
        assert [c.coeffs for c in found] == [coeffs for coeffs, _ in expected]
        assert max(abs(c.beta - b) for c, (_, b) in zip(found, expected)) <= 1e-12

    def test_one_chunk_starts_no_thread(self, monkeypatch, field101):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(norms, "_WORKERS", 2)
        monkeypatch.setattr(threading, "Thread", no_thread)
        values = kloosterman_trace(field101).values
        max_phase_correlation(values, 2, field101)  # one top
        max_phase_correlation(values, 3, field101)  # 101 tops, one chunk
        with pytest.raises(AssertionError, match="a thread was started"):
            max_phase_correlation(values, 4, field101)


def _one_nan(field):
    v = kloosterman_trace(field).values.copy()
    v[17] = np.nan
    return v


@pytest.mark.parametrize("call", [
    lambda v, F: scan_obstructions(v, 3, 0.5, F),
    lambda v, F: gowers_accelerated(v, 2, F),
    lambda v, F: max_phase_correlation(v, 3, F),
], ids=["scan_obstructions", "gowers_accelerated", "max_phase_correlation"])
def test_non_finite_values_refused(field101, monkeypatch, call):
    def walked(*args, **kwargs):
        raise RuntimeError("walked")

    monkeypatch.setattr(probe, "_correlation_rows", walked)
    with pytest.raises(ValueError, match="finite"):
        call(_one_nan(field101), field101)


@pytest.mark.parametrize("shape", [(100,), (101, 1), (103,)])
@pytest.mark.parametrize("call", [
    lambda v, F: phase_correlation(v, (0, 1), F),
    lambda v, F: scan_obstructions(v, 1, 0.5, F),
    lambda v, F: scan_obstructions(v, 2, 0.5, F),
    lambda v, F: scan_obstructions(v, 3, 0.5, F),
    lambda v, F: max_phase_correlation(v, 3, F),
    lambda v, F: decompose(v, 3, 0.5, F),
    lambda v, F: gowers_accelerated(v, 3, F),
], ids=["phase_correlation", "scan_d1", "scan_d2", "scan_d3", "max_phase_correlation",
        "decompose", "gowers_accelerated"])
def test_values_of_another_shape_refused(field101, monkeypatch, call, shape):
    def walked(*args, **kwargs):
        raise RuntimeError("walked")

    monkeypatch.setattr(probe, "_correlation_rows", walked)
    with pytest.raises(ValueError, match=r"values must have shape \(p,\)"):
        call(np.ones(shape, dtype=np.complex128), field101)
