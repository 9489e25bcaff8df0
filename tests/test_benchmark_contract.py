"""The package names and arguments that ``perfbench/spans.py`` rebinds.

The benchmark's ``--trace 1`` mode times the package from outside: it
rebinds functions and methods by name and reads their arguments by name.
A rename or a dropped argument would break it without failing any other
test, so these tests load ``perfbench/spans.py`` (without changing it)
and check both the names and a traced run.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from gowersff import cli, field

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Arguments each hook reads from the bound call; hooks that read only the
# tracer or the result read none.
HOOK_ARGS = {
    "_work_estimate": {"values", "d", "work_cap"},
    "_candidates": {"d", "field"},
    "_dft_counts": {"self", "v"},
    "_scan_counts": set(),
    "_verify_counts": set(),
    "<lambda>": set(),
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hook_args(hooks) -> set:
    return set().union(*(HOOK_ARGS[h.__name__] for h in hooks if h is not None))


def test_function_targets_exist_with_hook_arguments(spans):
    for home, attr, _, before, after, _ in spans._function_targets():
        fn = getattr(home, attr)
        params = set(inspect.signature(fn).parameters)
        assert _hook_args((before, after)) <= params, f"{home.__name__}.{attr}"


def test_method_targets_exist_with_hook_arguments(spans):
    for cls, attr, _, after in spans._method_targets():
        params = set(inspect.signature(cls.__dict__[attr]).parameters)
        assert _hook_args((after,)) <= params, f"{cls.__name__}.{attr}"


def _bindings(spans) -> dict:
    out = {m.__name__: dict(vars(m)) for m in spans._package_modules()}
    for cls, _, _, _ in spans._method_targets():
        out[cls.__qualname__] = dict(vars(cls))
    return out


def test_traced_probe_and_scan_restore_every_binding(spans, capsys):
    before = _bindings(spans)
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert cli.main(["probe", "--p", "101", "--family", "kloosterman", "--d", "3"]) == 0
        assert cli.main(["scan", "--family", "kloosterman", "--d", "3",
                         "--primes", "101,103"]) == 0
    capsys.readouterr()
    after = _bindings(spans)
    assert after.keys() == before.keys()
    for owner, names in before.items():
        changed = [k for k, v in names.items() if after[owner].get(k) is not v]
        assert not changed, f"{owner}: {changed}"
    times = tracer.self_times()[0]
    for span in ("probe.scan_obstructions_s", "probe.max_phase_correlation_s",
                 "harness.scan_primes_s", "norms.u3_s", "field.dft_s"):
        assert times[span] > 0, span


def test_counts_stay_exact_with_two_workers(spans, capsys, monkeypatch):
    # U_3 at p = 4013 (4012 = 2^2 * 17 * 59, numpy's route) runs 2007 orbit
    # rows in 63 chunks, the last one odd, shared with a helper thread whose
    # DFTs go through the same wrapped PrimeField.dft: 1004 packed rows, plus
    # the one row of the Kloosterman table itself.
    monkeypatch.setattr(field, "_WORKERS", 2)
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert cli.main(["scan", "--family", "kloosterman", "--d", "3",
                         "--primes", "4013"]) == 0
    capsys.readouterr()
    counts = tracer.counts[0]
    assert counts["field.dft_rows"] == 1005
    assert counts["field.dft_points"] == 1005 * 4013
    assert counts["harness.records"] == 1 and counts["harness.errors"] == 0


def test_rader_rows_bypass_prime_field_dft(spans, capsys):
    # At p = 4001 (4000 = 2^5 * 5^3) the kernel's rows take Rader's route,
    # which never calls PrimeField.dft: only the table's own row does.
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert cli.main(["scan", "--family", "kloosterman", "--d", "3",
                         "--primes", "4001"]) == 0
    capsys.readouterr()
    counts = tracer.counts[0]
    assert counts["field.dft_rows"] == 1
    assert counts["harness.records"] == 1 and counts["harness.errors"] == 0
