import dataclasses
import itertools
import math
import threading

import numpy as np
import pytest

from gowersff import field as field_module
from gowersff import probe
from gowersff.field import PrimeField
from gowersff import (
    WorkCapExceeded,
    decompose,
    dichotomy_report,
    gowers_accelerated,
    inverse_phase_trace,
    kloosterman_trace,
    legendre_curve_trace,
    make_table,
    max_phase_correlation,
    mixed_ask_trace,
    parse_family,
    phase_correlation,
    prime_field,
    probe_report,
    scan_obstructions,
)
from conftest import SmallPowersOnly, poly_phase, random_unit_vector


def _tied_at_3_4_9(monkeypatch, p, rader):
    """A fresh PrimeField(p) on the given route whose every transformed row
    is 1 at b = 3, 4 and 9 and 0 elsewhere."""
    monkeypatch.setattr(field_module, "_rader_route", lambda p: rader)
    F = PrimeField(p)
    peaks = np.isin(F._plan.freqs, [3, 4, 9])

    def transform(self, rows):
        rows[:] = peaks
        return rows

    monkeypatch.setattr(PrimeField, "_transform", transform)
    return F


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

    def test_estimate_past_the_float_range_refused_without_the_power(self):
        # 10007^10003 tops: the estimate is inf, and the power is never computed.
        F = PrimeField(10007)
        F.p = SmallPowersOnly(10007)
        with pytest.raises(WorkCapExceeded, match=r"d = 10005, p = 10007: .* = inf exceeds"):
            scan_obstructions(np.ones(10007), 10005, 0.5, F)

    def test_planted_cubic_recovered_at_d4(self, field101):
        v = poly_phase((0, 4, 0, 7), 101)
        assert scan_obstructions(v, 3, 0.5, field101) == []  # invisible to quadratics
        comps = scan_obstructions(v, 4, 0.5, field101)
        assert [c.coeffs for c in comps] == [(0, 4, 0, 7)]
        assert abs(comps[0].magnitude - 1) <= 1e-10
        table = mixed_ask_trace(((0, 4, 0, 7), (1,)), ((1,), (1,)), 0, field101)
        assert probe_report(table, 4, 0.5)["branch"] == "phase"

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, 0.0, -0.5])
    def test_threshold_must_be_finite_and_positive(self, field101, threshold):
        with pytest.raises(ValueError, match="threshold"):
            scan_obstructions(np.ones(101, dtype=np.complex128), 2, threshold, field101)

    def test_a_correlation_over_the_sup_norm_is_refused(self, field101, monkeypatch):
        # A raise, not an assert, so that python -O keeps the check.
        transform = PrimeField._transform
        monkeypatch.setattr(PrimeField, "_transform", lambda self, rows: 2 * transform(self, rows))
        with pytest.raises(ArithmeticError, match="exceeds the sup norm"):
            scan_obstructions(poly_phase((0, 5, 7), 101), 3, 0.5, field101)

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
        table = mixed_ask_trace(((0, 1), (1,)), ((1,), (1,)), 0, field101)
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

    def test_the_phase_branch_computes_u_d_on_first_read(self, field101):
        table = _planted(field101, (0, 5, 7))
        report = dichotomy_report(table, 3)
        assert report.branch == "phase"
        assert "u_d" not in vars(report)
        assert report.u_d == gowers_accelerated(table.values, 3, field101)
        assert report.u_d_times_p == report.u_d * 101

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
        table = mixed_ask_trace(((0, 3), (1,)), ((1,), (1,)), 0, field101)
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
        # 11 is on numpy's route and 101 on Rader's, whose spectra are not in b order.
        for p in (11, 101):
            assert max_phase_correlation(np.zeros(p), d, prime_field(p)) == (0.0, (0,) * d)

    @pytest.mark.parametrize("rader", [True, False], ids=["rader", "numpy"])
    def test_exact_ties_in_a_row_go_to_the_smallest_b(self, monkeypatch, rader):
        # Rader's columns at p = 11 hold b = 0, 1, 2, 4, 8, 5, 10, 9, 7, 3, 6:
        # b = 4 comes first.
        F = _tied_at_3_4_9(monkeypatch, 11, rader)
        # A real table walks tops 0..5; the hits of 6..10 are their mirrors'.
        best, flat, b, beta = probe._walk(np.ones(11), 3, F, 0.5)
        assert best == (1.0, 0, 3)
        assert sorted(zip(flat.tolist(), b.tolist())) == sorted(
            (t, c if t <= 5 else -c % 11) for t in range(11) for c in (3, 4, 9))
        assert max_phase_correlation(np.ones(11), 3, F) == (1.0, (0, 3, 0))

    @pytest.mark.parametrize("p", [101, 103], ids=["rader", "numpy"])
    @pytest.mark.parametrize("top", [(70,), (30,), (1, 100), (100, 1)], ids=str)
    def test_a_mirrored_tie_goes_to_the_first_top(self, p, top):
        # cos(2 pi P(x)/p) correlates about 1/2 with e(P/p), and exactly as
        # much with e(-P/p): a tie between (b, top) and (-b, -top), which the
        # real table's walk keeps exact.  The first top in flat order wins.
        F = prime_field(p)
        d = len(top) + 2
        coeffs = (0, 9, *top)
        mirrored = tuple(-c % p for c in coeffs)
        first = min(coeffs, mirrored, key=lambda c: sum(a * p**i for i, a in enumerate(c[2:])))
        v = poly_phase(coeffs, p).real
        best, argmax = max_phase_correlation(v, d, F)
        found = scan_obstructions(v, d, 0.3, F)
        assert [c.coeffs for c in found] == sorted([coeffs, mirrored])
        assert found[0].beta == found[1].beta.conjugate()
        assert argmax == first and best == pytest.approx(found[0].magnitude, rel=1e-15)

    def test_components_at_the_peak_reach_the_threshold(self, field101):
        # Python's abs and numpy's np.abs differ in the last bit for these
        # betas; a component's magnitude is the walk's |beta|, so a threshold
        # set to the peak keeps both mirrored components at or above it.
        v = poly_phase((0, 9, 70), 101).real
        threshold = max_phase_correlation(v, 3, field101)[0]
        found = scan_obstructions(v, 3, threshold, field101)
        assert [c.coeffs for c in found] == [(0, 9, 70), (0, 92, 31)]
        assert all(c.magnitude >= threshold for c in found)
        assert found[0].magnitude == threshold

    def test_d1_is_the_mean(self, field101):
        v = poly_phase((0, 3), 101) + 0.25
        best, coeffs = max_phase_correlation(v, 1, field101)
        assert coeffs == (0,)
        assert best == pytest.approx(0.25, abs=1e-12)

    def test_d1_scan_finds_only_the_mean(self, field101):
        v = poly_phase((0, 3), 101) + 0.75
        found = scan_obstructions(v, 1, 0.5, field101)
        assert [(c.coeffs, c.beta) for c in found] == [((0,), complex(v.mean()))]
        assert scan_obstructions(v, 1, 0.8, field101) == []


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
    return mixed_ask_trace((coeffs, (1,)), ((1,), (1,)), 0, field)


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

    @pytest.mark.parametrize("case, p, rows", [
        ("kloosterman", 101, 26), ("planted", 101, 103),
        ("kloosterman", 2017, 505), ("planted", 2017, 2019)])
    def test_rows_transformed(self, monkeypatch, case, p, rows):
        # The table's U_3 comes first: 51 orbit rows at p = 101 and 1009 at
        # 2017, packed two to a DFT row for the real Kloosterman table (26
        # and 505).  Its twist energies rule out every top of Kloosterman, whose
        # U_3 then decides the branch with no row walked, and every top of the
        # planted phase but its own, one row.  The planted phase's complex
        # residual takes its own U_3 (51 and 1009 rows).  Both primes take
        # Rader's route through PrimeField._transform, which calls no dft.
        field = prime_field(p)
        assert field._plan.spectrum is not None
        table = kloosterman_trace(field) if case == "kloosterman" else _planted(
            field, (0, 5, 7) if p == 101 else (0, 309, 1942))
        dft, transform = PrimeField.dft, PrimeField._transform
        seen = []

        def spy(self, v, out=None):
            seen.append(np.shape(v)[0] if np.ndim(v) == 2 else 1)
            return dft(self, v, out)

        def transform_spy(self, rows):
            seen.append(len(rows))
            return transform(self, rows)

        monkeypatch.setattr(PrimeField, "dft", spy)
        monkeypatch.setattr(PrimeField, "_transform", transform_spy)
        probe_report(table, 3, 0.5)
        assert sum(seen) == rows

    def test_a_planted_phase_takes_u_d_of_the_table_then_the_residual(self, field101,
                                                                      monkeypatch):
        # At d = 3 the table's U_3 comes first, with its twist energies, and
        # the dichotomy reads it; then the residual's.  At d = 4 nothing
        # changed: the planted cubic's report computes its residual's U_4 only.
        table = _planted(field101, (0, 5, 7))
        seen = []

        def spy(values, d, field=None, **kwargs):
            seen.append((values, sorted(kwargs)))
            return gowers_accelerated(values, d, field, **kwargs)

        monkeypatch.setattr(probe, "gowers_accelerated", spy)
        report = probe_report(table, 3, 0.5)
        t1 = decompose(table.values, 3, 0.5, field101).t1
        assert [kwargs for _, kwargs in seen] == [["twists"], []]
        assert np.array_equal(seen[0][0], table.values) and np.array_equal(seen[1][0], t1)
        assert report["branch"] == "phase"
        assert report["residual_u_d"] == gowers_accelerated(t1, 3, field101)
        seen.clear()
        cubic = mixed_ask_trace(((0, 4, 0, 7), (1,)), ((1,), (1,)), 0, field101)
        assert probe_report(cubic, 4, 0.5)["branch"] == "phase"
        assert [kwargs for _, kwargs in seen] == [[]]

    def test_the_walk_is_refused_before_the_tables_u3(self, field101, monkeypatch):
        # A cap between U_3's estimate at p = 101 (about 2.8e4) and the
        # walk's (about 9.9e4): the probe is refused with no row transformed.
        table = kloosterman_trace(field101)
        seen = []
        monkeypatch.setattr(probe, "DEFAULT_WORK_CAP", 60_000)
        monkeypatch.setattr(PrimeField, "_transform", lambda self, rows: seen.append(rows))
        with pytest.raises(WorkCapExceeded, match="probe at d = 3, p = 101"):
            probe_report(table, 3, 0.5)
        assert seen == []

    @pytest.mark.parametrize("threshold", [1e-3, 0.05, 0.35, 0.5, 0.99, 0.995, 1.5])
    @pytest.mark.parametrize("p", [101, 107])
    @pytest.mark.parametrize("case", ["kloosterman", "inverse_phase", "planted", "scaled"])
    def test_a_pruned_walk_reports_as_the_full_walk(self, case, p, threshold):
        # The full walk's composition, on Rader's route (101) and numpy's
        # (107).  "scaled" is a phase of magnitude 0.992: over PHASE_PROXY,
        # under 0.995.  At 1e-3 and 0.05 every top is walked, at 0.35 all but
        # a few of Kloosterman's and inverse_phase's, and from 0.5 on none of
        # theirs; a phase keeps only its own top from 0.35 on.
        field = prime_field(p)
        table = {"kloosterman": kloosterman_trace, "inverse_phase": inverse_phase_trace}.get(
            case, lambda f: _planted(f, (0, 5, 7)))(field)
        if case == "scaled":
            table = dataclasses.replace(table, values=0.992 * table.values)
        assert probe_report(table, 3, threshold) == _composed(table, 3, threshold)

    def test_refusal_comes_before_any_walk(self, field101, monkeypatch):
        def walked(*args, **kwargs):
            raise RuntimeError("walked")

        monkeypatch.setattr(probe, "_in_chunks", walked)
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
        in_chunks = probe._in_chunks

        def counted(*args, **kwargs):
            walks.append(1)
            return in_chunks(*args, **kwargs)

        monkeypatch.setattr(probe, "_in_chunks", counted)
        max_phase_correlation(table.values, 3, field101)
        max_phase_correlation(table.values, 3, field101)
        assert len(walks) == 2


class TestWalkedTops:
    """A walk of the given tops only: a real table's mirrors still follow."""

    def test_an_empty_walk_has_no_hits_and_a_zero_best(self, field101, monkeypatch):
        def walked(*args, **kwargs):
            raise RuntimeError("walked")

        monkeypatch.setattr(probe, "_in_chunks", walked)
        values = kloosterman_trace(field101).values
        best, *hits = probe._walk(values, 3, field101, 0.5, np.array([], np.int64))
        assert best == (0.0, 0, 0) and [len(h) for h in hits] == [0, 0, 0]

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_a_partial_walk_keeps_the_full_walks_hits(self, field101, real):
        # cos(2 pi (5x + 7x^2)/p) is real, with beta = 1/2 at (5, 7) and at
        # its mirror (-5, -7), top 94; e((5x + 7x^2)/p) is complex, with one
        # hit and no mirror.  Walking tops 7 and 94 finds what the full walk does.
        phase = poly_phase((0, 5, 7), 101)
        values = phase.real.astype(complex) if real else phase
        full = probe._walk(values, 3, field101, 0.4)
        part = probe._walk(values, 3, field101, 0.4, np.array([7, 94]))
        assert len(full[1]) == (2 if real else 1)
        assert part[0] == full[0]
        for got, want in zip(part[1:], full[1:]):
            assert np.array_equal(got, want)


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
            monkeypatch.setattr(field_module, "_WORKERS", workers)
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
        tops = [(a2, a3) for a3 in range(p) for a2 in range(p)]
        beta = F.dft_direct([v * np.conj(poly_phase((0, 0, *top), p)) for top in tops])
        expected = sorted((((0, int(b), *tops[t]), beta[t, b])
                           for t, b in zip(*np.nonzero(np.abs(beta) >= threshold))),
                          key=lambda e: (-abs(e[1]), e[0]))
        monkeypatch.setattr(field_module, "_WORKERS", workers)
        n_chunks, in_chunks = [], probe._in_chunks
        monkeypatch.setattr(probe, "_in_chunks",
                            lambda n, *rest: n_chunks.append(n) or in_chunks(n, *rest))
        found = scan_obstructions(v, d, threshold, F)
        assert n_chunks == [2]
        assert [c.coeffs for c in found] == [coeffs for coeffs, _ in expected]
        assert max(abs(c.beta - b) for c, (_, b) in zip(found, expected)) <= 1e-12

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("rader", [True, False], ids=["rader", "numpy"])
    def test_ties_across_chunks_go_to_the_first_top(self, monkeypatch, rader, workers):
        # All 2809 tops of d = 4 tie, in both chunks: the first top wins, at
        # its smallest b.
        monkeypatch.setattr(field_module, "_WORKERS", workers)
        F = _tied_at_3_4_9(monkeypatch, 53, rader)
        n_chunks, in_chunks = [], probe._in_chunks
        monkeypatch.setattr(probe, "_in_chunks",
                            lambda n, *rest: n_chunks.append(n) or in_chunks(n, *rest))
        v = random_unit_vector(53, np.random.default_rng(53))
        assert max_phase_correlation(v, 4, F) == (1.0, (0, 3, 0, 0))
        assert n_chunks == [2]

    def test_one_chunk_starts_no_thread(self, monkeypatch, field101):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(field_module, "_WORKERS", 2)
        monkeypatch.setattr(threading, "Thread", no_thread)
        values = kloosterman_trace(field101).values
        max_phase_correlation(values, 2, field101)  # one top
        max_phase_correlation(values, 3, field101)  # 101 tops, one chunk
        with pytest.raises(AssertionError, match="a thread was started"):
            max_phase_correlation(values, 4, field101)


def _threshold_below(mags, k: int) -> float:
    """A threshold with at least k of mags above it, and none within 1e-9 of it."""
    mags = np.sort(mags)[::-1]
    while mags[k - 1] - mags[k] < 1e-9:
        k += 1
    return (mags[k - 1] + mags[k]) / 2


class TestWalkRoutes:
    """The walk against the brute-force scan, on numpy's route and on Rader's."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("rader", [True, False], ids=["rader", "numpy"])
    @pytest.mark.parametrize("p, d", [(37, 2), (37, 3), (13, 4)], ids=["2-37", "3-37", "4-13"])
    def test_walk_matches_brute_force(self, monkeypatch, workers, real, rader, p, d):
        # Chunks of 4 rows: 19 walked tops of a real table at (37, 3), 37 of a
        # complex one, and 85 or 169 at (13, 4), run through both workers; at
        # (37, 2) the one top, (), is twisted by e(0) = 1.
        monkeypatch.setattr(field_module, "_rader_route", lambda p: rader)
        monkeypatch.setattr(field_module, "_WORKERS", workers)
        monkeypatch.setattr(probe, "_CHUNK_VALUES", 4 * p)
        F = PrimeField(p)
        assert (F._plan.spectrum is not None) == rader
        rng = np.random.default_rng(p + d)
        v = rng.uniform(-1, 1, p) if real else random_unit_vector(p, rng)
        brute = {(0,) + tail: phase_correlation(v, (0,) + tail, F)
                 for tail in itertools.product(range(p), repeat=d - 1)}
        threshold = _threshold_below(np.abs(list(brute.values())), 12)
        found = scan_obstructions(v, d, threshold, F)
        assert found == sorted(found, key=lambda c: (-c.magnitude, c.coeffs))
        expected = {c: beta for c, beta in brute.items() if abs(beta) >= threshold}
        assert {c.coeffs for c in found} == expected.keys()
        assert max(abs(c.beta - expected[c.coeffs]) for c in found) <= 1e-12
        best, coeffs = max_phase_correlation(v, d, F)
        assert best == pytest.approx(max(map(abs, brute.values())), abs=1e-12)
        assert abs(brute[coeffs]) == pytest.approx(best, abs=1e-12)


#: Weil's constants C in |correlation with a phase of degree < d| <= C / sqrt(p),
#: deg P = d - 1: m + d - 2 for the Legendre symbol of a degree-m polynomial, d for
#: e(1/x); Kloosterman's transform is unimodular (C = 1 at d = 2), and it is the
#: transform of e(1/x), whose quadratic phases it meets with the same C at d = 3.
WEIL = {("legendre_poly:1,1,0,1", 2): 3, ("legendre_poly:1,1,0,1", 3): 4,
        ("inverse_phase", 2): 2, ("inverse_phase", 3): 3,
        ("kloosterman", 2): 1, ("kloosterman", 3): 3}


class TestWeilBounds:
    """The inverse theorem's other half: a trace function that is not a phase
    correlates with every phase of degree < d by O(1/sqrt(p))."""

    @pytest.mark.parametrize("p", [101, 1009])
    @pytest.mark.parametrize("family, d", WEIL, ids=[f"{f.split(':')[0]}-{d}" for f, d in WEIL])
    def test_peak_correlation_within_the_weil_constant(self, family, d, p):
        table = make_table(parse_family(family), p)
        peak, _ = max_phase_correlation(table.values, d, table.field)
        assert peak * math.sqrt(p) <= WEIL[family, d] * (1 + 1e-9)  # Kloosterman's 1 is tight

    @pytest.mark.parametrize("p", [101, 1009])
    @pytest.mark.parametrize("family", ["legendre_poly:1,1,0,1", "inverse_phase", "kloosterman"])
    def test_u2_within_the_weil_bound(self, family, p):
        # U_2 = sum |hat|^4 <= max |hat|^2 * sum |hat|^2 = max |hat|^2 * E|phi|^2,
        # so U_2 * p <= C^2 * E|phi|^2; Kloosterman meets it with equality.
        table = make_table(parse_family(family), p)
        u2 = gowers_accelerated(table.values, 2, table.field)
        mean_square = float(np.mean(np.abs(table.values) ** 2))
        assert u2 * p <= WEIL[family, 2] ** 2 * mean_square * (1 + 1e-9)


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

    monkeypatch.setattr(probe, "_in_chunks", walked)
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

    monkeypatch.setattr(probe, "_in_chunks", walked)
    with pytest.raises(ValueError, match=r"values must have shape \(p,\)"):
        call(np.ones(shape, dtype=np.complex128), field101)


@pytest.mark.parametrize("p, d", [(3, 4), (5, 5), (5, 7), (101, 300)])
@pytest.mark.parametrize("call", [
    lambda v, d, F: scan_obstructions(v, d, 0.5, F),
    lambda v, d, F: max_phase_correlation(v, d, F),
    lambda v, d, F: decompose(v, d, 0.5, F),
    lambda v, d, F: dichotomy_report(kloosterman_trace(F), d),
    lambda v, d, F: probe_report(inverse_phase_trace(F), d, 0.5),
], ids=["scan_obstructions", "max_phase_correlation", "decompose", "dichotomy_report",
        "probe_report"])
def test_p_not_above_d_refused_before_the_walk(monkeypatch, call, p, d):
    # From degree p on the phases alias (x^p = x); the cost estimate is not reached.
    def estimated(*args, **kwargs):
        raise RuntimeError("estimated")

    monkeypatch.setattr(probe, "_refuse_over_cap", estimated)
    F = prime_field(p)
    with pytest.raises(ValueError, match=rf"p = {p} violates the precondition p > d = {d}"):
        call(np.ones(p, dtype=np.complex128), d, F)
