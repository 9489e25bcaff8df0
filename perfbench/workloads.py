"""The benchmark's seeded workloads and the checks on their output.

Each workload is a list of :class:`Item`: one ``gowersff`` CLI argv and a
function that checks what that call printed.  The seed picks the primes
(each band holds four candidates), the planted coefficients and the
baseline seed; the program only ever sees the resulting argv.  Every
``u_d`` a workload prints is checked against ``references.json``, which
``make_refs.py`` builds for every candidate prime, so the check holds for
every seed, not only the default one.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Callable, NamedTuple

#: Relative tolerance on u_d against the references (the repo's 1e-9
#: engine-agreement tolerance, taken relative since u_d ~ 1/p).
REL_TOL = 1e-9

#: Absolute slack for values that are exactly 0 in exact arithmetic (U_1 of
#: Kloosterman is |mean|^2 of a zero-sum table, ~1e-33 in floating point).
ABS_TOL = 1e-18

#: The empirical ceiling on u_d * p that ``verify`` also applies.
CEILING = 1e3

#: Correlation magnitude the probe treats as "is this phase".
PHASE_PROXY = 0.99

#: Candidate primes per band: the first four primes at or above the target.
BANDS = {
    100: (101, 103, 107, 109),
    200: (211, 223, 227, 229),
    300: (307, 311, 313, 317),
    1000: (1009, 1013, 1019, 1021),
    2000: (2003, 2011, 2017, 2027),
    4000: (4001, 4003, 4007, 4013),
    8000: (8009, 8011, 8017, 8039),
    10**4: (10007, 10009, 10037, 10039),
    10**6: (1000003, 1000033, 1000037, 1000039),  # below 2^20, so the inverse table is built
}

#: The built-in ``verify`` sweep (``harness.VerifyConfig`` defaults).
VERIFY_FAMILIES = ("legendre_poly:1,1,0,1", "inverse_phase", "kloosterman", "legendre_curve")
VERIFY_D = (1, 2, 3)
VERIFY_PRIMES = (101, 211, 499, 997)

SWEEP_FAMILIES = (
    "legendre_poly:1,1,0,1",
    "inverse_phase",
    "kloosterman",
    "mixed_ask:f1=0,1;f2=1,1;chi=q",
)

_REFERENCES_PATH = Path(__file__).with_name("references.json")


class CheckFailed(Exception):
    """The program's output is wrong or incomplete."""


class Item(NamedTuple):
    argv: tuple[str, ...]
    check: Callable[[str], None]


def _references() -> dict[str, float]:
    return json.loads(_REFERENCES_PATH.read_text(encoding="utf-8"))["u_d"]


def reference_key(label: str, d: int, p: int) -> str:
    return f"{label}|{d}|{p}"


def close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * abs(ref) + ABS_TOL


def _check_u_d(refs: dict, label: str, d: int, p: int, value: float) -> None:
    key = reference_key(label, d, p)
    if key not in refs:
        raise CheckFailed(f"no reference value for {key}")
    ref = refs[key]
    if not close(value, ref):
        raise CheckFailed(f"{key}: u_d = {value!r}, reference {ref!r}")


def _check_records(records: list, refs: dict) -> None:
    for r in records:
        where = f"{r['family']} d={r['d']} p={r['p']}"
        if r["bound_satisfied"] is not True:
            raise CheckFailed(f"bound not satisfied: {where}")
        if not r["u_d_times_p"] <= CEILING:
            raise CheckFailed(f"u_d*p = {r['u_d_times_p']} over {CEILING}: {where}")
        _check_u_d(refs, r["family"], r["d"], r["p"], r["u_d"])


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


# -- items ---------------------------------------------------------------------


def _scan_item(family: str, d: int, primes, refs: dict) -> Item:
    primes = list(primes)
    argv = ("scan", "--family", family, "--d", str(d),
            "--primes", ",".join(map(str, primes)), "--format", "json")

    def check(out: str) -> None:
        records = _json(out)
        if [r["p"] for r in records] != primes or any(r["d"] != d for r in records):
            raise CheckFailed(f"scan rows {[(r['p'], r['d']) for r in records]} != primes {primes} at d={d}")
        _check_records(records, refs)

    return Item(argv, check)


def _verify_item(baseline_seed: int, refs: dict) -> Item:
    argv = ("verify", "--stable-output", "--seed", str(baseline_seed),
            "--output", "-", "--format", "json")
    expected = len(VERIFY_FAMILIES) * len(VERIFY_D) * len(VERIFY_PRIMES)

    def check(out: str) -> None:
        summary, sep, records = out.partition("RESULT: PASS\n")
        if not sep:
            raise CheckFailed("verify did not print RESULT: PASS")
        records = _json(records)
        if len(records) != expected:
            raise CheckFailed(f"verify printed {len(records)} records, expected {expected}")
        _check_records(records, refs)

    return Item(argv, check)


def _probe_argv(family: str, p: int) -> tuple[str, ...]:
    return ("probe", "--family", family, "--p", str(p), "--d", "3", "--threshold", "0.5")


def _probe_report(out: str, p: int) -> dict:
    report = _json(out)
    if report["p"] != p or report["d"] != 3:
        raise CheckFailed(f"probe reported p={report['p']} d={report['d']}")
    return report


def _planted_probe_item(p: int, a: int, b: int) -> Item:
    """A pure quadratic phase e((b x + a x^2)/p): the probe must find exactly it."""

    def check(out: str) -> None:
        report = _probe_report(out, p)
        comps = report["components"]
        if [c["coeffs"] for c in comps] != [[0, b, a]]:
            raise CheckFailed(f"planted [0,{b},{a}] at p={p}, probe found {[c['coeffs'] for c in comps]}")
        beta = math.hypot(comps[0]["beta_re"], comps[0]["beta_im"])
        if not beta >= PHASE_PROXY:
            raise CheckFailed(f"planted phase recovered with |beta| = {beta}")
        if report["branch"] != "phase":
            raise CheckFailed(f"planted phase classified {report['branch']!r}")

    return Item(_probe_argv(f"mixed_ask:f1=0,{b},{a};f2=1;chi=0", p), check)


def _uniform_probe_item(p: int, refs: dict) -> Item:
    """Kloosterman: no phase reaches the threshold, so the residual is the table."""

    def check(out: str) -> None:
        report = _probe_report(out, p)
        if report["components"] or report["branch"] != "uniform":
            raise CheckFailed(f"kloosterman probe: branch {report['branch']!r}, "
                              f"{len(report['components'])} components")
        _check_u_d(refs, "kloosterman", 3, p, report["residual_u_d"])

    return Item(_probe_argv("kloosterman", p), check)


# -- workloads -----------------------------------------------------------------


def _verify_default(rng: random.Random, refs: dict) -> list[Item]:
    return [_verify_item(rng.randrange(1, 2**31), refs)]


def _scan_deep(rng: random.Random, refs: dict) -> list[Item]:
    d3 = [rng.choice(BANDS[t]) for t in (1000, 2000, 4000, 8000)]
    d4 = [rng.choice(BANDS[t]) for t in (100, 200, 300)]
    return [_scan_item("kloosterman", 3, d3, refs), _scan_item("kloosterman", 4, d4, refs)]


def _probe_d3(rng: random.Random, refs: dict) -> list[Item]:
    p = rng.choice(BANDS[2000])
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    return [_planted_probe_item(p, a, b), _uniform_probe_item(p, refs)]


def _sweep_u2_large_p(rng: random.Random, refs: dict) -> list[Item]:
    p = rng.choice(BANDS[10**6])
    q = rng.choice(BANDS[10**4])
    items = [_scan_item(f, 2, [p], refs) for f in SWEEP_FAMILIES]
    # legendre_curve's generator is O(p^2), so it runs near 10^4 instead.
    items.append(_scan_item("legendre_curve", 2, [q], refs))
    return items


WORKLOADS = {
    "verify_default": _verify_default,
    "scan_deep": _scan_deep,
    "probe_d3": _probe_d3,
    "sweep_u2_large_p": _sweep_u2_large_p,
}


def items(workload: str, seed: int) -> list[Item]:
    """The CLI calls one iteration of ``workload`` makes for ``seed``."""
    return WORKLOADS[workload](random.Random(seed), _references())


def reference_specs():
    """Every (family, d, p) whose u_d some workload can print, for any seed."""
    for fam in VERIFY_FAMILIES:
        for d in VERIFY_D:
            for p in VERIFY_PRIMES:
                yield fam, d, p
    for t in (1000, 2000, 4000, 8000):
        for p in BANDS[t]:
            yield "kloosterman", 3, p
    for t in (100, 200, 300):
        for p in BANDS[t]:
            yield "kloosterman", 4, p
    for fam in SWEEP_FAMILIES:
        for p in BANDS[10**6]:
            yield fam, 2, p
    for p in BANDS[10**4]:
        yield "legendre_curve", 2, p


# -- predicted per-layer pattern -----------------------------------------------

_PROBE = {
    "probe.scan_obstructions_s", "probe.max_phase_correlation_s", "probe.decompose_s",
    "probe.dichotomy_s", "probe.report_s", "probe.candidates", "probe.components",
}
_OTHER_FAMILIES = {
    "traces.legendre_poly_s", "traces.legendre_curve_s", "traces.legendre_curve_integers_s",
}

#: Per-layer metrics predicted to read exactly 0 on each workload.  Every
#: other layer metric is predicted nonzero, except these failure counts,
#: which read 0 everywhere on a healthy run.
ALWAYS_ZERO = {"norms.refusals", "harness.errors"}
PREDICTED_ZERO = {
    "verify_default": _PROBE | {
        "traces.mixed_ask_s", "traces.chi_values_s", "norms.u4_s", "harness.scan_primes_s",
    },
    "scan_deep": _PROBE | _OTHER_FAMILIES | {
        "polys.eval_all_s", "traces.mixed_ask_s", "traces.chi_values_s",
        "norms.u1_s", "norms.u2_s", "norms.recursive_s", "harness.verify_s", "harness.baseline_s",
    },
    "probe_d3": _OTHER_FAMILIES | {
        "norms.u1_s", "norms.u2_s", "norms.u4_s", "norms.recursive_s",
        "norms.evaluate_s", "norms.evaluate_calls",
        "harness.scan_primes_s", "harness.verify_s", "harness.baseline_s",
        "harness.emit_s", "harness.records",
    },
    "sweep_u2_large_p": _PROBE | {
        "norms.u1_s", "norms.u3_s", "norms.u4_s", "norms.recursive_s",
        "harness.verify_s", "harness.baseline_s",
    },
}
