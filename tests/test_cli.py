import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from gowersff import cli, field, harness, norms
from gowersff.cli import main
from gowersff.harness import SCAN_COLUMNS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_header_and_rows(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            capsys, "gen", "--p", "7", "--family", "legendre_poly",
            "--family-args", "0,1", "--output", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "# family=legendre_poly(0,1) p=7 rank=1 conductor=3"
        assert len(lines) == 8
        x, re, im = lines[1].split(",")
        assert (x, re, im) == ("0", "0", "0")
        assert lines[2].split(",")[1] == "1"

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "gen", "--p", "11", "--family", "kloosterman")
        assert code == 0
        assert out.startswith("# family=kloosterman p=11 rank=2 conductor=4\n")


class TestOutput:
    @pytest.mark.parametrize("argv", [
        ("gen", "--p", "31", "--family", "kloosterman"),
        ("norm", "--p", "31", "--family", "kloosterman", "--d", "3", "--format", "json"),
        ("probe", "--p", "31", "--family", "kloosterman", "--d", "3"),
    ], ids=["gen", "norm", "probe"])
    def test_dash_is_stdout_and_a_file_gets_the_same_bytes(self, capsys, tmp_path,
                                                           monkeypatch, argv):
        # A frozen clock: norm's elapsed_ms would otherwise differ between runs.
        monkeypatch.setattr(norms, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        path = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--output", "-")
        assert (code, err) == (0, "") and out
        assert run(capsys, *argv) == (0, out, "")
        assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode()


class TestNorm:
    def test_csv_row(self, capsys):
        code, out, _ = run(
            capsys, "norm", "--p", "101", "--family", "inverse_phase", "--d", "2",
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == ",".join(SCAN_COLUMNS)
        fields = dict(zip(SCAN_COLUMNS, row.split(",")))
        assert fields["p"] == "101"
        assert fields["engine"] == "accelerated"
        assert fields["bound_satisfied"] == "true"
        assert 1.9 < float(fields["u_d_times_p"]) < 2.1

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "norm", "--p", "101", "--family", "kloosterman",
            "--d", "2", "--format", "json",
        )
        assert code == 0
        (payload,) = json.loads(out)
        assert payload["family"] == "kloosterman"
        assert payload["bound_satisfied"] is True

    @pytest.mark.parametrize("argv", [
        ("norm", "--p", "101", "--family", "kloosterman", "--d", "2"),
        ("scan", "--primes", "101", "--family", "kloosterman", "--d", "2"),
    ], ids=["norm", "scan"])
    def test_engine_option_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--engine", "oracle"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --engine oracle" in capsys.readouterr().err

    def test_accelerated_work_cap_refusal_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "norm", "--p", "257", "--family", "kloosterman", "--d", "5",
        )
        assert code == 2
        assert out == ""
        assert "work cap" in err
        assert "allow" not in err  # no hint at a library-only override
        assert "Traceback" not in err

    def test_p_not_above_d_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "norm", "--p", "3", "--family", "inverse_phase", "--d", "3",
        )
        assert code == 2
        assert out == ""
        assert "p > d" in err

    def test_row_matches_scan_except_timing(self, capsys):
        # d = 1 included: norm and scan run the same route at every d.
        for d in ("1", "3"):
            argv = ("--family", "kloosterman", "--d", d)
            code_n, out_n, _ = run(capsys, "norm", "--p", "101", *argv)
            code_s, out_s, _ = run(capsys, "scan", "--primes", "101", *argv)
            assert code_n == code_s == 0
            rows = []
            for out in (out_n, out_s):
                header, row = out.splitlines()
                assert header == ",".join(SCAN_COLUMNS)
                fields = dict(zip(SCAN_COLUMNS, row.split(",")))
                del fields["elapsed_ms"]
                rows.append(fields)
            assert rows[0] == rows[1], d


class TestProbe:
    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--p", "101", "--family", "kloosterman",
            "--d", "2", "--threshold", "0.5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["branch"] == "uniform"
        assert report["components"] == []
        assert report["residual_u_d_times_p"] < 1e3


    def test_planted_cubic_at_d4(self, capsys):
        code, out, _ = run(
            capsys, "probe", "--p", "101", "--family", "mixed_ask",
            "--family-args", "f1=0,4,0,7;f2=1;chi=0", "--d", "4",
        )
        assert code == 0
        report = json.loads(out)
        assert [c["coeffs"] for c in report["components"]] == [[0, 4, 0, 7]]
        assert report["branch"] == "phase"

    def test_large_p_refused_by_work_cap_before_scanning(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "probe", "--p", "1000003", "--family", "kloosterman", "--d", "3",
        )
        assert code == 2
        assert out == "" and "work cap" in err
        assert time.perf_counter() - start < 2.0


class TestScan:
    def test_prime_range_parsing(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--family", "inverse_phase", "--d", "2",
            "--primes", "101..113",
        )
        assert code == 0
        rows = out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["101", "103", "107", "109", "113"]

    def test_estimate_past_the_float_range_is_an_error_row(self, capsys):
        code, out, err = run(capsys, "scan", "--family", "inverse_phase", "--d", "1000",
                             "--primes", "1009,101")
        assert code == 0
        assert out.splitlines() == [",".join(SCAN_COLUMNS)]
        assert "U_1000 at p = 1009" in err and "= inf exceeds work cap" in err
        assert "p > d = 1000" in err

    def test_bad_prime_reported_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "scan", "--family", "inverse_phase", "--d", "2",
            "--primes", "101,9",
        )
        assert code == 0
        assert len(out.splitlines()) == 2  # header + one good row
        assert "9" in err and "error" in err


class TestBaseline:
    def test_deterministic_output(self, capsys):
        args = ("baseline", "--p", "101", "--d", "2", "--trials", "10", "--seed", "3")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestVerifyCommand:
    CONFIG = (
        "families = inverse_phase kloosterman\n"
        "d_values = 1 2\n"
        "primes = 11 13\n"
        "baseline_p = 11\n"
        "baseline_trials = 5\n"
    )

    def test_pass_exit_zero(self, capsys, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(self.CONFIG)
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "RESULT: PASS" in out

    def test_fail_exit_one_with_tiny_ceiling(self, capsys, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(self.CONFIG)
        code, out, _ = run(capsys, "verify", "--config", str(cfg), "--ceiling", "1e-9")
        assert code == 1
        assert "RESULT: FAIL" in out
        assert "FAIL:" in out

    def test_stable_output_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(self.CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, text1, _ = run(
            capsys, "verify", "--config", str(cfg), "--stable-output",
            "--output", str(out1),
        )
        code2, text2, _ = run(
            capsys, "verify", "--config", str(cfg), "--stable-output",
            "--output", str(out2),
        )
        assert code1 == code2 == 0
        assert text1 == text2
        assert out1.read_bytes() == out2.read_bytes()

    def test_agreement_check_through_d4_fits_default_cap(self, capsys, tmp_path):
        # gowers_recursive's cost at p0 = 101, d = 4 is 101^4 ~ 1.04e8.
        cfg = tmp_path / "v.cfg"
        cfg.write_text("families = kloosterman\nd_values = 1 2 3 4\nprimes = 101\n"
                       "baseline_trials = 5\n")
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "RESULT: PASS" in out

    def test_agreement_check_at_d5_refused_before_any_table(self, capsys, tmp_path, monkeypatch):
        def no_table(spec, p):
            raise AssertionError("a table was built")

        monkeypatch.setattr(harness, "make_table", no_table)
        cfg = tmp_path / "v.cfg"
        cfg.write_text("d_values = 1 2 3 4 5\nprimes = 101\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "U_5 at p = 101" in err and "work cap" in err

    def test_agreement_estimate_past_the_float_range_refused(self, capsys, tmp_path,
                                                             monkeypatch):
        def no_table(spec, p, work_cap):
            raise AssertionError("a table was built")

        monkeypatch.setattr(harness, "make_table", no_table)
        cfg = tmp_path / "v.cfg"
        cfg.write_text("d_values = 1 2 200\nprimes = 211 499\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert "U_200 at p = 211" in err and "= inf exceeds work cap" in err

    def test_refused_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("primes = 3 11\nd_values = 1 2 3\n")
        code, _, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert "p > d" in err

    def test_bad_character_index_refused_before_the_sweep(self, capsys, tmp_path, monkeypatch):
        def no_table(spec, p):
            raise AssertionError("a table was built")

        monkeypatch.setattr(harness, "make_table", no_table)
        cfg = tmp_path / "v.cfg"
        cfg.write_text("families = mixed_ask:chi=x\nprimes = 11 13\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "chi must be an integer or q" in err

    @pytest.mark.parametrize("key", ["families", "d_values", "primes"])
    def test_empty_sweep_is_usage_error(self, capsys, tmp_path, key):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(f"{key} =\n")
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"{key} is empty" in err


def _nan_table(spec, p, work_cap=None):
    return SimpleNamespace(p=p, values=np.full(p, np.nan, dtype=np.complex128))


REFUSALS = [
    pytest.param(("norm", "--p", "100", "--family", "kloosterman", "--d", "2"),
                 "not prime", None, id="bad_prime"),
    pytest.param(("norm", "--p", "3", "--family", "inverse_phase", "--d", "3"),
                 "p > d", None, id="p_not_above_d"),
    pytest.param(("norm", "--p", "11", "--family", "kloosterman", "--d", "2"),
                 "finite", _nan_table, id="nan_values"),
    pytest.param(("norm", "--p", "257", "--family", "kloosterman", "--d", "5"),
                 "work cap", None, id="norm_work_cap"),
    pytest.param(("probe", "--p", "10007", "--family", "kloosterman", "--d", "4"),
                 "work cap", None, id="probe_work_cap"),
    pytest.param(("verify", "--ceiling", "nan"), "ceiling", None, id="nan_ceiling"),
    pytest.param(("probe", "--p", "101", "--family", "kloosterman", "--d", "2",
                  "--threshold", "nan"), "threshold", None, id="nan_threshold"),
    pytest.param(("scan", "--family", "inverse_phase", "--d", "2", "--primes", "101",
                  "--work-cap", "-1"), "work_cap", None, id="negative_work_cap"),
    pytest.param(("norm", "--p", "101", "--family", "inverse_phase", "--d", "2", "--work-cap", "0"),
                 "work_cap must be finite and positive, got 0", None, id="norm_zero_work_cap"),
    pytest.param(("norm", "--p", "101", "--family", "inverse_phase", "--d", "2", "--work-cap", "-5"),
                 "work_cap must be finite and positive, got -5", None, id="norm_negative_work_cap"),
    pytest.param(("norm", "--p", "11", "--family", "nope", "--d", "1"),
                 "unknown family", None, id="unknown_family"),
    pytest.param(("norm", "--p", "11", "--family", "legendre_poly:1,1,0,1",
                  "--family-args", "0,1", "--d", "1"), "inline arguments", None,
                 id="inline_and_family_args"),
    pytest.param(("norm", "--p", "11", "--family", "kloosterman", "--family-args", "1,2",
                  "--d", "1"), "takes no arguments", None, id="family_args_of_kloosterman"),
    pytest.param(("norm", "--p", "11", "--family", "kloosterman:junk", "--d", "1"),
                 "takes no arguments", None, id="inline_args_of_kloosterman"),
    pytest.param(("baseline", "--p", "4", "--d", "1"), "not prime", None,
                 id="baseline_composite_p"),
    pytest.param(("baseline", "--p", "0", "--d", "1"), "p > d", None, id="baseline_zero_p"),
    pytest.param(("baseline", "--p", "3", "--d", "5"), "p > d", None,
                 id="baseline_p_not_above_d"),
    pytest.param(("baseline", "--p", "101", "--d", "2", "--seed", "-5"),
                 "seed must be >= 0, got -5", None, id="baseline_negative_seed"),
    pytest.param(("verify", "--seed", "-1"), "seed must be >= 0, got -1", None,
                 id="verify_negative_seed"),
    # From degree p on the probe's phases alias (x^p = x): p <= d is refused
    # before the cost estimate, and before any output.
    pytest.param(("probe", "--p", "3", "--family", "inverse_phase", "--d", "4"),
                 "p = 3 violates the precondition p > d = 4", None, id="probe_p_below_d"),
    pytest.param(("probe", "--p", "5", "--family", "kloosterman", "--d", "7"),
                 "p = 5 violates the precondition p > d = 7", None, id="probe_p_below_d_kloosterman"),
    pytest.param(("probe", "--p", "5", "--family", "inverse_phase", "--d", "5"),
                 "p = 5 violates the precondition p > d = 5", None, id="probe_p_equal_d"),
    pytest.param(("probe", "--p", "101", "--family", "kloosterman", "--d", "3000000"),
                 "p = 101 violates the precondition p > d = 3000000", None,
                 id="probe_large_d_above_p"),
    # An empty prime list, as a reversed range or an empty comma list.
    pytest.param(("scan", "--family", "kloosterman", "--d", "2", "--primes", "101..97"),
                 "primes is empty: scan needs at least one", None, id="scan_reversed_range"),
    pytest.param(("scan", "--family", "kloosterman", "--d", "2", "--primes", ","),
                 "primes is empty: scan needs at least one", None, id="scan_no_primes"),
    # Estimates past the float range are refused as infinite, not overflowed.
    pytest.param(("probe", "--p", "307", "--family", "kloosterman", "--d", "300"),
                 "= inf exceeds work cap", None, id="probe_estimate_past_float_range"),
    pytest.param(("norm", "--p", "1000003", "--family", "inverse_phase", "--d", "300"),
                 "= inf exceeds work cap", None, id="norm_estimate_past_float_range"),
    # A large d too, and quickly: the exact estimate is never computed.
    pytest.param(("norm", "--p", "1000003", "--family", "inverse_phase", "--d", "300000"),
                 "U_300000 at p = 1000003: estimated cost rows * p * 2^(d-2) + dft_rows * p * "
                 "log2 p = inf exceeds work cap 1000000000", None, id="norm_large_d"),
    pytest.param(("probe", "--p", "1000003", "--family", "inverse_phase", "--d", "1000000"),
                 "probe at d = 1000000, p = 1000003: estimated cost p^(d-2) * p * (d + log2 p) = "
                 "inf exceeds work cap 1000000000", None, id="probe_large_d"),
    pytest.param(("gen", "--p", str(10**400 + 1), "--family", "kloosterman"),
                 "= inf exceeds work cap", None, id="gen_estimate_past_float_range"),
    pytest.param(("baseline", "--p", str(10**400 + 1), "--d", "2"),
                 "= inf exceeds work cap", None, id="baseline_estimate_past_float_range"),
]


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message, make_table", REFUSALS)
    def test_refusal_exits_two(self, capsys, monkeypatch, argv, message, make_table):
        if make_table is not None:
            monkeypatch.setattr(cli, "make_table", make_table)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_unknown_family_exits_two(self, capsys):
        code, _, err = run(capsys, "norm", "--p", "11", "--family", "nope", "--d", "1")
        assert code == 2
        assert "unknown family" in err

    def test_out_of_memory_exits_two(self, capsys, monkeypatch):
        def too_large(spec, p, work_cap=None):
            raise MemoryError("Unable to allocate 32.0 GiB for an array")

        monkeypatch.setattr(cli, "make_table", too_large)
        code, out, err = run(capsys, "norm", "--p", "101", "--family", "kloosterman", "--d", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Unable to allocate" in err
        assert "Traceback" not in err

    def test_table_cap_follows_the_work_cap(self, capsys):
        # p log2 p ~ 672 at p = 101; U_1 itself has no cost to refuse.
        code, out, err = run(capsys, "norm", "--family", "kloosterman", "--p", "101",
                             "--d", "1", "--work-cap", "500")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "table at p = 101" in err and "500" in err
        code, out, err = run(capsys, "scan", "--family", "kloosterman", "--primes", "101",
                             "--d", "1", "--work-cap", "500")
        assert code == 0
        assert out.splitlines() == [",".join(SCAN_COLUMNS)]
        assert err.startswith("error: ") and "table at p = 101" in err

    def test_table_work_cap_refused_before_the_field(self, capsys, monkeypatch):
        # p log2 p ~ 6.7e10 is over the default cap; the field must never be built.
        def no_field(p):
            raise AssertionError(f"PrimeField({p}) was built")

        monkeypatch.setattr(field, "PrimeField", no_field)
        code, out, err = run(capsys, "norm", "--p", "2147483647", "--family", "kloosterman",
                             "--d", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "work cap" in err
        assert "Traceback" not in err

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_argparse_bad_choice_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["norm", "--p", "11", "--family", "kloosterman",
                  "--d", "2", "--format", "xml"])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["gen", "norm", "probe", "scan"])
def test_family_help_names_every_family(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "--family FAMILY legendre_poly | inverse_phase | kloosterman | legendre_curve | " \
           "mixed_ask --family-args" in out
