import io
import itertools
import json
import math
import re
import types
from dataclasses import fields, replace

import numpy as np
import pytest

from gowersff import (
    VerifyConfig,
    WorkCapExceeded,
    bound_constant,
    emit,
    gowers_oracle,
    load_config,
    make_table,
    parse_family,
    random_baseline,
    scan_primes,
    verify,
)
import gowersff
from gowersff import field, harness, norms, probe, traces
from gowersff.cli import main
from gowersff.harness import (
    BASELINE_COLUMNS,
    SCAN_COLUMNS,
    BaselineRecord,
    FamilySpec,
    ScanRecord,
    stable_records,
    summary_table,
)
from conftest import SmallPowersOnly


def test_package_exports_exactly_its_modules_all():
    public = {name for name, value in vars(gowersff).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    modules = (field, traces, norms, probe, harness)
    assert public == {name for module in modules for name in module.__all__}
    # Pairwise disjoint too: a name in two lists would pass the set test
    # above while the later star import silently won.
    for first, second in itertools.combinations(modules, 2):
        assert not set(first.__all__) & set(second.__all__), (first.__name__, second.__name__)


class TestBoundConstant:
    def test_inverse_phase_d1(self):
        assert bound_constant(traces.FIXED_FAMILIES["inverse_phase"].conductor, 1) == 15**4 == 50625

    def test_kloosterman_d1(self):
        assert bound_constant(traces.FIXED_FAMILIES["kloosterman"].conductor, 1) == 20**4 == 160000

    def test_generic_conductor_three_matches_inverse_phase(self):
        (record,), errors = scan_primes(parse_family("inverse_phase"), 1, [101])
        assert not errors
        assert record.bound_constant == bound_constant(3, 1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coherence_with_family_conductors(self, d):
        for name, conductor in (("inverse_phase", 3), ("kloosterman", 4), ("legendre_curve", 5)):
            (record,), errors = scan_primes(parse_family(name), d, [101])
            assert not errors
            assert record.bound_constant == bound_constant(conductor, d)
        for m, coeffs in ((1, "1,1"), (3, "1,1,0,1"), (7, "1,1,0,0,0,0,0,1")):
            (record,), errors = scan_primes(parse_family("legendre_poly:" + coeffs), d, [101])
            assert not errors
            assert record.bound_constant == bound_constant(m + 2, d)

    def test_exponent_structure(self):
        for d in (1, 2, 3):
            assert bound_constant(5, d) == 25.0 ** ((d + 1) * 2**d)

    def test_overflow_is_vacuous_infinity(self):
        assert math.isinf(bound_constant(10, 20))

    def test_other_families_read_their_conductor(self):
        spec = parse_family("mixed_ask:f1=0,0,0,1;f2=1,1;chi=q")
        records, errors = scan_primes(spec, 2, [101])
        assert not errors
        conductor = make_table(spec, 101).descriptor.conductor
        assert records[0].bound_constant == bound_constant(conductor, 2)

    @pytest.mark.parametrize("spelling, label, constant", [
        ("1,1,0,1", "legendre_poly(1,1,0,1)", 25**4),
        ("1,1,0,1,0", "legendre_poly(1,1,0,1)", 25**4),  # a trailing zero
        ("1,1,0,101", "legendre_poly(1,1)", 15**4),  # f = 1 + x mod 101: conductor 3
    ])
    def test_legendre_poly_degree_is_of_f_mod_p(self, spelling, label, constant):
        (record,), errors = scan_primes(parse_family("legendre_poly:" + spelling), 1, [101])
        assert not errors
        assert (record.family, record.bound_constant) == (label, constant)


class TestFamilyParsing:
    def test_inline_and_separate_args(self):
        a = parse_family("legendre_poly:1,1,0,1")
        b = parse_family(" legendre_poly:1,1,0,1 ")
        c = parse_family("legendre_poly: 1, 1, 0, 1")
        assert a == b == c
        assert a.coeffs == (1, 1, 0, 1)

    def test_mixed_ask_parsing(self):
        spec = parse_family("mixed_ask:f1=1/0,1; f2=0,1; chi=q")
        assert spec.f1 == ((1,), (0, 1))
        assert spec.f2 == ((0, 1), (1,))
        assert spec.chi == "q"

    def test_mixed_ask_empty_parts(self):
        spec = parse_family("mixed_ask:f1=;;chi=q")
        assert spec.f1 == ((), (1,))
        assert spec == parse_family("mixed_ask:f1=;chi=q")

    @pytest.mark.parametrize("key", ["f1", "f2"])
    def test_mixed_ask_empty_denominator_refused(self, key):
        # "1/" is not 1/1; an empty numerator ("f1=") stays 0.
        with pytest.raises(ValueError, match="mixed_ask ratio '1/' has an empty denominator"):
            parse_family(f"mixed_ask:{key}=1/")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_family("weil_sum")

    @pytest.mark.parametrize("spec, message", [
        ("legendre_poly", "legendre_poly needs coefficients"),
        ("legendre_poly:", "legendre_poly needs coefficients"),
        ("mixed_ask:f1=0,1;f3=1", "unknown mixed_ask argument 'f3'"),
        ("legendre_poly:f=1,1,0,1", "invalid literal for int"),
    ])
    def test_missing_or_unknown_arguments_refused(self, spec, message):
        with pytest.raises(ValueError, match=message):
            parse_family(spec)

    @pytest.mark.parametrize("spec, args", [
        ("kloosterman", "1,2"), ("kloosterman:junk", None), ("inverse_phase:0,1", None),
        ("legendre_curve", "f=1"),
    ])
    def test_argument_less_families_refuse_arguments(self, spec, args):
        with pytest.raises(ValueError, match="takes no arguments"):
            parse_family(spec if args is None else f"{spec}:{args}")

    @pytest.mark.parametrize("chi", ["x", "", "1.5", "q2", "3,4"])
    def test_mixed_ask_chi_is_an_integer_or_q(self, chi):
        with pytest.raises(ValueError, match="chi must be an integer or q"):
            parse_family(f"mixed_ask:f1=0,1;chi={chi}")
        assert [parse_family(f"mixed_ask:chi={c}").chi for c in ("q", "3", "-3")] == ["q", "3", "-3"]

    def test_make_table_families(self):
        for name in ("inverse_phase", "kloosterman", "legendre_curve"):
            table = make_table(parse_family(name), 101)
            assert table.p == 101
        table = make_table(parse_family("mixed_ask:f1=0;f2=0,1;chi=q"), 101)
        assert table.descriptor.family == "mixed_ask"

    def test_make_table_refuses_an_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            make_table(FamilySpec("nope"), 101)

    def test_non_positive_work_cap_refused(self):
        with pytest.raises(ValueError, match="work_cap must be finite and positive, got 0"):
            make_table(parse_family("inverse_phase"), 101, work_cap=0)


class TestScanPrimes:
    def test_kloosterman_sweep_all_bounds_hold(self):
        primes = [p for p in range(101, 200) if all(p % q for q in range(2, p))]
        records, errors = scan_primes(parse_family("kloosterman"), 2, primes)
        assert not errors
        assert len(records) == len(primes)
        assert all(r.bound_satisfied for r in records)
        assert all(r.u_d_times_p <= 1e3 for r in records)
        assert all(r.u_d_times_p == r.u_d * r.p and r.elapsed_ms >= 0 for r in records)

    def test_nonprime_yields_error_record_and_continues(self):
        records, errors = scan_primes(parse_family("inverse_phase"), 2, [101, 9, 103])
        assert len(records) == 2
        assert len(errors) == 1
        assert errors[0]["p"] == 9

    def test_p_not_exceeding_d_refused_per_item(self):
        records, errors = scan_primes(parse_family("inverse_phase"), 3, [3, 101])
        assert [r.p for r in records] == [101]
        assert "p > d" in errors[0]["error"]

    def test_square_poly_rejected_upstream(self):
        records, errors = scan_primes(parse_family("legendre_poly:0,0,1"), 2, [101])
        assert not records
        assert "square-degenerate" in errors[0]["error"]

    def test_legendre_curve_minimum_prime(self):
        records, errors = scan_primes(parse_family("legendre_curve"), 1, [3, 7])
        assert [r.p for r in records] == [7]
        assert len(errors) == 1

    @pytest.mark.parametrize("primes", [[], (), range(101, 97), iter([])])
    def test_empty_primes_refused_before_any_table(self, monkeypatch, primes):
        def built(*args, **kwargs):
            raise RuntimeError("a table was built")

        monkeypatch.setattr(harness, "make_table", built)
        with pytest.raises(ValueError, match="primes is empty: scan needs at least one"):
            scan_primes(parse_family("kloosterman"), 2, primes)

    def test_field_cache_keeps_only_the_last_field(self):
        records, errors = scan_primes(parse_family("kloosterman"), 2, [101, 103, 107])
        assert len(records) == 3 and not errors
        assert field.prime_field.cache_info().currsize == 1

    @pytest.mark.parametrize("work_cap", [0, -1])
    def test_work_cap_refused_once_for_the_scan(self, work_cap):
        with pytest.raises(ValueError, match="work_cap"):
            scan_primes(parse_family("inverse_phase"), 2, [101], work_cap=work_cap)


class TestRandomBaseline:
    def test_determinism(self):
        a = random_baseline(101, 2, 20, seed=7)
        b = random_baseline(101, 2, 20, seed=7)
        assert a == b

    def test_seed_changes_stream(self):
        a = random_baseline(101, 2, 20, seed=7)
        b = random_baseline(101, 2, 20, seed=8)
        assert a.mean_u_d != b.mean_u_d

    def test_expected_window_p101_d2(self):
        rec = random_baseline(101, 2, 50, seed=1)
        assert 0.5 < rec.mean_u_d_times_p < 10

    def test_engine_cross_check_p31_d3(self):
        fast = random_baseline(31, 3, 20, seed=1)
        rng = np.random.Generator(np.random.PCG64(1))  # the baseline's own draws
        slow = np.mean([gowers_oracle(rng.integers(0, 2, 31) * 2 - 1, 3) for _ in range(20)])
        ratio = fast.mean_u_d / slow
        assert 1 / 3 < ratio < 3

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            random_baseline(101, 2, 0, seed=1)

    def test_negative_seed_refused_before_the_field(self, monkeypatch):
        def no_field(p, work_cap):
            raise AssertionError("a field was built")

        monkeypatch.setattr(harness, "_table_field", no_field)
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            random_baseline(101, 2, 20, seed=-5)

    @pytest.mark.parametrize("d", [0, -1])
    def test_d_below_one_refused_before_the_field(self, monkeypatch, d):
        def no_field(p, work_cap):
            raise AssertionError("a field was built")

        monkeypatch.setattr(harness, "_table_field", no_field)
        with pytest.raises(ValueError, match="d must be >= 1"):
            random_baseline(101, d, 20, seed=1)


SMALL_CONFIG = VerifyConfig(
    families=("inverse_phase", "kloosterman"),
    d_values=(1, 2),
    primes=(11, 13),
    baseline_p=11,
    baseline_trials=5,
)


class TestVerify:
    def test_small_config_passes(self):
        report = verify(SMALL_CONFIG)
        assert report.passed
        assert len(report.records) == 8
        assert not report.errors

    def test_ceiling_failure_is_reported(self):
        report = verify(replace(SMALL_CONFIG, ceiling=1e-9))
        assert not report.passed
        assert any("ceiling" in f for f in report.failures)

    @pytest.mark.parametrize("field, value", [
        ("ceiling", float("nan")), ("ceiling", float("inf")), ("ceiling", 0.0),
        ("ceiling", -1.0), ("work_cap", 0), ("work_cap", -1),
    ])
    def test_non_positive_or_non_finite_settings_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            replace(SMALL_CONFIG, **{field: value})

    @pytest.mark.parametrize("key", ["families", "d_values", "primes"])
    def test_empty_sweep_refused(self, key):
        with pytest.raises(ValueError, match=f"{key} is empty"):
            replace(SMALL_CONFIG, **{key: ()})

    def test_d_below_one_refused(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            VerifyConfig(d_values=(0, 1))

    @pytest.mark.parametrize("key, values, repeated", [
        ("primes", (101, 211, 101), "101"), ("d_values", (1, 2, 2), "2"),
        ("families", ("kloosterman", "inverse_phase", "kloosterman"), "'kloosterman'"),
    ])
    def test_repeated_value_refused(self, key, values, repeated):
        with pytest.raises(ValueError, match=f"{key} repeats {repeated}: verify runs each once"):
            replace(SMALL_CONFIG, **{key: values})

    def test_unknown_family_refused_by_the_config(self):
        with pytest.raises(ValueError, match="unknown family 'weil_sum'"):
            replace(SMALL_CONFIG, families=("kloosterman", "weil_sum"))

    def test_baseline_d_below_one_refused(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            VerifyConfig(baseline_d=0, primes=(101, 211))

    @pytest.mark.parametrize("change, message", [
        ({"primes": (100, 211, 499)}, "p = 100 is not prime"),
        ({"baseline_trials": 0}, "trials must be >= 1"),
        ({"baseline_p": 4}, "p = 4 is not prime"),
        ({"baseline_d": 200}, "p > d = 200"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ], ids=["composite_p0", "no_trials", "composite_baseline_p", "baseline_d_above_p",
            "negative_seed"])
    def test_refused_before_any_table(self, monkeypatch, change, message):
        built = []

        def no_table(spec, p, work_cap):
            built.append(p)
            raise AssertionError("a table was built")

        monkeypatch.setattr(harness, "make_table", no_table)
        with pytest.raises(ValueError, match=message):
            verify(replace(SMALL_CONFIG, **change))
        assert built == []

    def test_failures_and_errors_come_in_p_family_d_order(self, monkeypatch):
        # Two families, so the primes' loop is seen outside the families'.
        evaluate = harness.evaluate

        def no_deep_norm(table, d, work_cap):
            if d >= 3:
                raise ValueError(f"refused d = {d}")
            return evaluate(table, d, work_cap)

        monkeypatch.setattr(harness, "evaluate", no_deep_norm)
        report = verify(replace(SMALL_CONFIG, d_values=(1, 2, 3, 4), ceiling=1e-9))
        assert [(e["p"], e["family"], e["d"]) for e in report.errors] == [
            (11, "inverse_phase", 3), (11, "inverse_phase", 4), (11, "kloosterman", 3),
            (11, "kloosterman", 4), (13, "inverse_phase", 3), (13, "inverse_phase", 4),
            (13, "kloosterman", 3), (13, "kloosterman", 4)]
        # Kloosterman's U_1 is 0 up to rounding, under the ceiling.
        where = [f.split(": ")[1] for f in report.failures if f.startswith("ceiling exceeded")]
        assert where == ["inverse_phase d=1 p=11", "inverse_phase d=2 p=11",
                         "kloosterman d=2 p=11", "inverse_phase d=1 p=13",
                         "inverse_phase d=2 p=13", "kloosterman d=2 p=13"]
        assert [(r.family, r.d, r.p) for r in report.records] == [
            (family, d, p) for family in ("inverse_phase", "kloosterman") for d in (1, 2)
            for p in (11, 13)]
        assert [(a["family"], a["d"]) for a in report.agreements if a["check"] == "engine"] == [
            ("inverse_phase", 1), ("inverse_phase", 2), ("kloosterman", 1), ("kloosterman", 2)]

    def test_failures_come_in_p_family_d_order(self):
        # The sweep walks the primes outermost, so each prime's field is built once.
        report = verify(replace(SMALL_CONFIG, d_values=(2, 3), ceiling=1e-9))
        where = [f.split(": ")[1] for f in report.failures]
        assert where == [f"{family} d={d} p={p}" for p in (11, 13)
                         for family in ("inverse_phase", "kloosterman") for d in (2, 3)]
        assert [(r.family, r.d, r.p) for r in report.records] == sorted(
            (r.family, r.d, r.p) for r in report.records)

    def test_default_verify_builds_each_field_once(self):
        # One per prime, then the baseline's at p = 101 again, after the sweep.
        # Drawing the baseline while p = 101 is still cached would build 4,
        # but its draw imports numpy.random, about 5.5 MB of resident memory,
        # which would then stack under the p = 997 U_3 pass and its peak.
        field.prime_field.cache_clear()
        verify()
        assert field.prime_field.cache_info().misses == 5

    def test_table_error_is_a_row_and_fails(self, capsys, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("families = legendre_curve\nd_values = 1 2\nprimes = 3 5 7\n")
        report = verify(load_config(str(cfg)))
        error = {"p": 3, "family": "legendre_curve", "error": "legendre_curve requires p >= 5"}
        assert report.errors == (error,) and not report.failures and not report.passed
        assert [(r.p, r.d) for r in report.records] == [(5, 1), (7, 1), (5, 2), (7, 2)]
        assert main(["verify", "--config", str(cfg), "--stable-output"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert f"error: {error}" in lines and lines[-1] == "RESULT: FAIL"

    def test_p_not_exceeding_d_refused(self):
        with pytest.raises(ValueError, match="p > d"):
            verify(replace(SMALL_CONFIG, primes=(2, 11), d_values=(1, 2, 3)))

    def test_legendre_curve_transform_checked_against_point_count(self, monkeypatch):
        real = harness.legendre_curve_integers
        monkeypatch.setattr(harness, "legendre_curve_integers", lambda field: real(field) + 1)
        report = verify(SMALL_CONFIG)
        assert not report.passed
        assert "legendre_curve point_count vs transform differ" in report.failures

    @pytest.mark.parametrize("name, perturbed, agreements, fails", [
        ("gowers_recursive", lambda real: lambda v, d: real(v, d) + 1e-6,
         ["agreement[engine] p=11 d=1: delta=1e-06 ok=false",
          "agreement[engine] p=11 d=2: delta=1e-06 ok=false"],
         ["FAIL: engine disagreement: kloosterman d=1 p=11: |accel-rec|=1e-06",
          "FAIL: engine disagreement: kloosterman d=2 p=11: |accel-rec|=1e-06"]),
        ("kloosterman_direct", lambda real: lambda field: real(field) + 1e-6,
         ["agreement[kloosterman_methods] p=11: delta=1e-06 ok=false"],
         ["FAIL: kloosterman direct vs transform: 1e-06"]),
        ("legendre_curve_point_count", lambda real: lambda field: real(field) + 1,
         ["agreement[legendre_curve_methods] p=11: delta=1 ok=false"],
         ["FAIL: legendre_curve point_count vs transform differ"]),
    ], ids=["engine", "kloosterman_methods", "legendre_curve_methods"])
    def test_every_agreement_check_can_fail(self, capsys, tmp_path, monkeypatch,
                                            name, perturbed, agreements, fails):
        monkeypatch.setattr(harness, name, perturbed(getattr(harness, name)))
        cfg = tmp_path / "v.cfg"
        cfg.write_text("families = kloosterman\nd_values = 1 2\nprimes = 11 13\n"
                       "baseline_p = 11\nbaseline_trials = 5\n")
        assert main(["verify", "--config", str(cfg)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [ln for ln in lines if ln.endswith("ok=false")] == agreements
        assert [ln for ln in lines if ln.startswith("FAIL:")] == fails
        assert lines[-1] == "RESULT: FAIL"

    def test_agreement_check_over_work_cap_refused_before_any_table(self, monkeypatch):
        def no_table(spec, p):
            raise AssertionError("a table was built")

        monkeypatch.setattr(harness, "make_table", no_table)
        # p0^d = 11^2 = 121 for the recursive check at p0 = 11, d = 2.
        with pytest.raises(WorkCapExceeded, match=r"U_2 at p = 11.*p\^d.*work cap"):
            verify(replace(SMALL_CONFIG, work_cap=100))

    def test_agreement_estimate_past_the_float_range_refused(self, monkeypatch):
        def no_table(spec, p, work_cap):
            raise AssertionError("a table was built")

        monkeypatch.setattr(harness, "make_table", no_table)
        # 211^200 has no float value: the estimate counts as infinite.
        with pytest.raises(WorkCapExceeded, match=r"U_200 at p = 211.*= inf exceeds work cap"):
            verify(replace(SMALL_CONFIG, d_values=(1, 2, 200), primes=(211, 499)))

    def test_agreement_estimate_past_the_float_range_refused_without_the_power(self):
        primes = (SmallPowersOnly(300007), SmallPowersOnly(300017))
        with pytest.raises(WorkCapExceeded,
                           match=r"U_300000 at p = 300007: .* p\^d = inf exceeds work cap"):
            verify(replace(SMALL_CONFIG, d_values=(1, 2, 300000), primes=primes))

    def test_summary_mentions_result(self):
        report = verify(SMALL_CONFIG)
        text = summary_table(report)
        assert "RESULT: PASS" in text
        assert "baseline" in text


class TestEmit:
    def test_empty_csv_is_header_only(self):
        buf = io.StringIO()
        emit([], "csv", buf)
        assert buf.getvalue() == ",".join(SCAN_COLUMNS) + "\n"

    def test_scan_record_roundtrips_through_json(self):
        rec = ScanRecord(
            p=101, family="kloosterman", d=2, engine="accelerated",
            u_d=0.0098, u_d_times_p=0.99, bound_constant=20.0**24,
            bound=20.0**24 / 101, bound_satisfied=True, elapsed_ms=1.25,
        )
        buf = io.StringIO()
        emit([rec], "json", buf)
        loaded = json.loads(buf.getvalue())[0]
        assert loaded == {c: getattr(rec, c) for c in SCAN_COLUMNS}

    def test_float_formatting_17_significant_digits(self):
        rec = BaselineRecord(p=101, d=2, trials=50, seed=1,
                             mean_u_d=1 / 3, mean_u_d_times_p=101 / 3)
        buf = io.StringIO()
        emit([rec], "csv", buf)
        header, row = buf.getvalue().splitlines()
        assert header == ",".join(BASELINE_COLUMNS)
        assert f"{1/3:.17g}" in row

    def test_booleans_lowercase_in_csv(self):
        rec = ScanRecord(
            p=11, family="x", d=1, engine="recursive", u_d=0.0,
            u_d_times_p=0.0, bound_constant=1.0, bound=1.0,
            bound_satisfied=True, elapsed_ms=0.0,
        )
        buf = io.StringIO()
        emit([rec], "csv", buf)
        assert ",true," in buf.getvalue()

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit([], "yaml", io.StringIO())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_record_rejected(self, fmt):
        with pytest.raises(TypeError):
            emit([{"p": 11}], fmt, io.StringIO())

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_path_objects_are_written(self, tmp_path, fmt):
        rec = BaselineRecord(p=101, d=2, trials=50, seed=1,
                             mean_u_d=1 / 3, mean_u_d_times_p=101 / 3)
        buf = io.StringIO()
        emit([rec], fmt, buf)
        emit([rec], fmt, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == buf.getvalue().encode()
        harness._write_json({"p": 101}, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_bytes() == b'{\n  "p": 101\n}\n'

    def test_unwritable_path_errors(self):
        with pytest.raises(OSError):
            emit([], "csv", "/nonexistent-dir/records.csv")

    def test_stable_records_zero_timing(self):
        rec = ScanRecord(
            p=11, family="x", d=1, engine="recursive", u_d=0.0,
            u_d_times_p=0.0, bound_constant=1.0, bound=1.0,
            bound_satisfied=True, elapsed_ms=3.5,
        )
        (out,) = stable_records([rec])
        assert out.elapsed_ms == 0.0


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "verify.cfg"
        path.write_text(
            "# sweep setup\n"
            "families = inverse_phase kloosterman legendre_poly:1,1,0,1\n"
            "d_values = 1, 2\n"
            "primes = 11 13\n"
            "ceiling = 500\n"
            "seed = 9\n"
            "baseline_trials = 5\n"
            "stable_output = true\n"
        )
        config = load_config(str(path))
        assert config.families == (
            "inverse_phase", "kloosterman", "legendre_poly:1,1,0,1"
        )
        assert config.d_values == (1, 2)
        assert config.primes == (11, 13)
        assert config.ceiling == 500.0
        assert config.seed == 9
        assert config.stable_output is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("tolerance = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_config(str(path))

    def test_engine_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("engine = oracle\n")
        with pytest.raises(ValueError, match="unknown key 'engine'"):
            load_config(str(path))

    @pytest.mark.parametrize("text, flag", [
        ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False),
    ])
    def test_stable_output_flags(self, tmp_path, text, flag):
        path = tmp_path / "verify.cfg"
        path.write_text(f"stable_output = {text}\n")
        assert load_config(str(path)).stable_output is flag

    @pytest.mark.parametrize("text", ["ture", "on", "2", ""])
    def test_unrecognized_stable_output_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(f"seed = 3\nstable_output = {text}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: stable_output")):
            load_config(str(path))

    def test_nan_ceiling_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("ceiling = nan\n")
        with pytest.raises(ValueError, match="ceiling"):
            load_config(str(path))

    def test_one_parser_per_config_field(self):
        assert harness._CONFIG_KEYS.keys() == {f.name for f in fields(VerifyConfig)}

    @pytest.mark.parametrize("text", ["seed = x", "primes = 11 b", "ceiling = high"])
    def test_parse_errors_name_the_line(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# comment\n{text}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ")):
            load_config(str(path))

    def test_byte_order_mark_read(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("seed = 3\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(str(path)).seed == 3

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 3\n# again\nseed = 4\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:3: key 'seed' already set on line 1")):
            load_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="key = value"):
            load_config(str(path))
