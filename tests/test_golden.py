"""CLI outputs against files kept under tests/golden, field by field.

The files were written by the CLI (numpy 2.4.6) with

    gowersff verify --stable-output --output verify.csv > verify_summary.txt
    gowersff verify --stable-output --format json --output -  (after the summary: verify.json)
    gowersff baseline --p 101 --d 2 [--format json] > baseline_p101_d2.csv (.json)
    gowersff scan --family kloosterman --d 3 --primes 1009,2011,2017 \\
        --output scan_kloosterman_d3.csv          (elapsed_ms column dropped)
    gowersff probe --p P --family kloosterman --d 3 --output probe_kloosterman_d3_P.json
    gowersff probe --p P --family "mixed_ask:f1=0,5,7;f2=1;chi=0" \\
        --d 3 --output probe_mixed_ask_d3_P.json  (P = 2011, numpy's route; 2017, Rader's)

Strings, integers, booleans and coefficient lists must match exactly.
Floats must match within 1e-12 relative, with a 1e-18 absolute floor for
the rounding residuals of planted phases (~1e-123) and of U_1 (~1e-33).
Regenerate a file only for a change that is meant to move an output.
"""

import csv
import io
import json
import re
from pathlib import Path

import pytest

from gowersff.cli import main

GOLDEN = Path(__file__).parent / "golden"
PLANTED = ("--family", "mixed_ask:f1=0,5,7;f2=1;chi=0")


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= max(1e-12 * max(abs(a), abs(b)), 1e-18)


def _same_token(a: str, b: str) -> bool:
    """Integers and words exactly, anything else that reads as a float within tolerance."""
    if a == b:
        return True
    if re.fullmatch(r"[+-]?\d+", a) and re.fullmatch(r"[+-]?\d+", b):
        return False
    try:
        return _close(float(a), float(b))
    except ValueError:
        return False


def _same_json(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    return _close(a, b) if isinstance(a, float) else a == b


def _csv_rows(text: str, drop=()) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name not in drop]
    return [[row[i] for i in keep] for row in rows]


def _assert_same_rows(got: list[list[str]], want: list[list[str]]) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert len(g) == len(w) and all(map(_same_token, g, w)), (g, w)


def _run(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_verify_csv_and_summary(capsys, tmp_path):
    out = tmp_path / "verify.csv"
    summary = _run(capsys, "verify", "--stable-output", "--output", str(out))
    _assert_same_rows(_csv_rows(out.read_text()),
                      _csv_rows((GOLDEN / "verify.csv").read_text()))
    words = [re.split(r"[\s=]+", line.strip()) for line in summary.splitlines()]
    _assert_same_rows(words, [re.split(r"[\s=]+", line.strip()) for line in
                              (GOLDEN / "verify_summary.txt").read_text().splitlines()])


def test_verify_json(capsys):
    out = _run(capsys, "verify", "--stable-output", "--format", "json", "--output", "-")
    _, result, records = out.partition("RESULT: PASS\n")
    assert result
    assert _same_json(json.loads(records), json.loads((GOLDEN / "verify.json").read_text()))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_baseline(capsys, fmt):
    got = _run(capsys, "baseline", "--p", "101", "--d", "2", "--format", fmt)
    want = (GOLDEN / f"baseline_p101_d2.{fmt}").read_text()
    if fmt == "csv":
        _assert_same_rows(_csv_rows(got), _csv_rows(want))
    else:
        assert _same_json(json.loads(got), json.loads(want)), (got, want)


def test_scan_csv(capsys):
    text = _run(capsys, "scan", "--family", "kloosterman", "--d", "3",
                "--primes", "1009,2011,2017")
    _assert_same_rows(_csv_rows(text, drop=("elapsed_ms",)),
                      _csv_rows((GOLDEN / "scan_kloosterman_d3.csv").read_text()))


@pytest.mark.parametrize("p", [2011, 2017], ids=["numpy", "rader"])
@pytest.mark.parametrize("name, family", [("kloosterman", ("--family", "kloosterman")),
                                          ("mixed_ask", PLANTED)], ids=["kloosterman", "planted"])
def test_probe_json(capsys, p, name, family):
    got = json.loads(_run(capsys, "probe", "--p", str(p), *family, "--d", "3"))
    want = json.loads((GOLDEN / f"probe_{name}_d3_{p}.json").read_text())
    assert _same_json(got, want), (got, want)

