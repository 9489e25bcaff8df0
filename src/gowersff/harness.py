"""Prime sweeps, proven-bound checks, random baselines, and persistence.

Each family carries an explicit bound U_d <= (5c)^((d+1) 2^d) / p, a
function of its descriptor's conductor c alone: m+2 for the Legendre
symbol of a degree-m polynomial f mod p, 3 inverse phase, 4 Kloosterman,
5 Legendre curve, and a count from degrees for mixed_ask.  These constants
are astronomically generous at desk scale, so scans also check the
informative quantity U_d * p against a modest configurable ceiling
(default 10^3): boundedness of U_d * p across a prime sweep is what
makes the 1/p scaling visible.

Random baselines average U_d over independent uniform +-1 functions
drawn from numpy's PCG64 generator (fixed algorithm; the seed is
recorded in the output), matching the heuristic that random bounded
mean-zero functions have U_d of size 1/p.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import re
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .field import PrimeField, prime_field
from .norms import (
    DEFAULT_CEILING,
    DEFAULT_WORK_CAP,
    _check_p_above_d,
    _check_positive,
    _refuse_over_cap,
    evaluate,
    gowers_recursive,
    gowers_accelerated,
)
from .traces import (
    FIXED_FAMILIES,
    TraceTable,
    inverse_phase_trace,
    kloosterman_direct,
    kloosterman_trace,
    legendre_curve_integers,
    legendre_curve_point_count,
    legendre_curve_trace,
    legendre_poly_trace,
    mixed_ask_trace,
)

__all__ = [
    "bound_constant",
    "FamilySpec",
    "parse_family",
    "make_table",
    "ScanRecord",
    "BaselineRecord",
    "scan_primes",
    "random_baseline",
    "VerifyConfig",
    "load_config",
    "verify",
    "VerifyReport",
    "emit",
    "SCAN_COLUMNS",
    "BASELINE_COLUMNS",
]

DEFAULT_PRIMES = (101, 211, 499, 997)
DEFAULT_FAMILIES = (
    "legendre_poly:1,1,0,1",  # f = X^3 + X + 1, ascending coefficients
    "inverse_phase",
    "kloosterman",
    "legendre_curve",
)

ENGINE_AGREEMENT_TOL = 1e-9
KLOOSTERMAN_METHOD_TOL = 1e-8


def _table_field(p: int, work_cap: int) -> PrimeField:
    """The field of a table at p, refused before it is built when p * log2 p exceeds the cap."""
    _refuse_over_cap(f"table at p = {p}", "p * log2 p",
                     lambda: p * math.log2(p) if p > 1 else 0.0, work_cap)
    return prime_field(p)


def bound_constant(conductor: int, d: int) -> float:
    """(5c)^((d+1) 2^d) for a family of conductor c; inf, a vacuous bound, on overflow."""
    try:
        return float(5 * conductor) ** ((d + 1) * 2**d)
    except OverflowError:
        return math.inf


# -- family specs ------------------------------------------------------------


@dataclass(frozen=True)
class FamilySpec:
    """Parsed family selector: name plus arguments."""

    name: str
    coeffs: tuple[int, ...] = ()          # legendre_poly: f, ascending
    f1: tuple[tuple[int, ...], tuple[int, ...]] = ((), (1,))   # mixed_ask
    f2: tuple[tuple[int, ...], tuple[int, ...]] = ((1,), (1,))
    chi: str = "0"                         # index, or "q" for quadratic


def _parse_coeffs(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(t) for t in text.split(","))


def _parse_ratio(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    num, slash, den = text.partition("/")
    if slash and not den.strip():
        raise ValueError(f"mixed_ask ratio {text!r} has an empty denominator")
    return _parse_coeffs(num), _parse_coeffs(den) if slash else (1,)


def parse_family(spec: str) -> FamilySpec:
    """Parse a 'name' or 'name:args' family selector.

    legendre_poly args are the ascending coefficients of f, e.g.
    ``1,1,0,1`` for X^3 + X + 1.  mixed_ask args are semicolon-separated
    ``f1=<num>/<den>; f2=<num>/<den>; chi=<index|q>`` coefficient lists.
    The other families take no arguments.
    """
    name, _, args = spec.partition(":")
    name = name.strip()
    if name in FIXED_FAMILIES:
        if args:
            raise ValueError(f"{name} takes no arguments, got {args!r}")
        return FamilySpec(name=name)
    if name == "legendre_poly":
        if not args:
            raise ValueError("legendre_poly needs coefficients, e.g. legendre_poly:1,1,0,1")
        return FamilySpec(name=name, coeffs=_parse_coeffs(args))
    if name == "mixed_ask":
        fields = {"f1": "0", "f2": "1", "chi": "0"}
        for part in args.split(";"):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            if key.strip() not in fields:
                raise ValueError(f"unknown mixed_ask argument {key.strip()!r}")
            fields[key.strip()] = value.strip()
        if fields["chi"] != "q" and not re.fullmatch(r"[+-]?\d+", fields["chi"]):
            raise ValueError(f"mixed_ask chi must be an integer or q, got {fields['chi']!r}")
        return FamilySpec(
            name=name,
            f1=_parse_ratio(fields["f1"]),
            f2=_parse_ratio(fields["f2"]),
            chi=fields["chi"],
        )
    raise ValueError(f"unknown family {name!r}")


def make_table(spec: FamilySpec, p: int, work_cap: int = DEFAULT_WORK_CAP) -> TraceTable:
    """Generate the trace table of a parsed family at the prime p.

    Refuses, before the field is built, when the table's cost p * log2 p
    exceeds ``work_cap`` (the caller's, so ``--work-cap`` moves it too).
    """
    field = _table_field(p, work_cap)
    if spec.name == "legendre_poly":
        return legendre_poly_trace(spec.coeffs, field)
    if spec.name == "inverse_phase":
        return inverse_phase_trace(field)
    if spec.name == "kloosterman":
        return kloosterman_trace(field)
    if spec.name == "legendre_curve":
        return legendre_curve_trace(field)
    if spec.name == "mixed_ask":
        index = (p - 1) // 2 if spec.chi == "q" else int(spec.chi)
        return mixed_ask_trace(spec.f1, spec.f2, index, field)
    raise ValueError(f"unknown family {spec.name!r}")


# -- records -----------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ScanRecord:
    """One (p, family, d) measurement against the proven bound.

    ``engine`` names the route that computed u_d; every record the
    package builds reads ``accelerated``.
    """

    p: int
    family: str
    d: int
    engine: str = "accelerated"
    u_d: float
    u_d_times_p: float
    bound_constant: float
    bound: float
    bound_satisfied: bool
    elapsed_ms: float


@dataclass(frozen=True)
class BaselineRecord:
    """Mean U_d over seeded random +-1 functions."""

    p: int
    d: int
    trials: int
    seed: int
    mean_u_d: float
    mean_u_d_times_p: float


SCAN_COLUMNS = tuple(f.name for f in fields(ScanRecord))
BASELINE_COLUMNS = tuple(f.name for f in fields(BaselineRecord))


def _make_record(table: TraceTable, d: int, work_cap: int) -> ScanRecord:
    _check_p_above_d(table.p, d)
    start = time.perf_counter()
    u_d = evaluate(table, d, work_cap)
    elapsed = time.perf_counter() - start
    constant = bound_constant(table.descriptor.conductor, d)
    bound = constant / table.p
    return ScanRecord(
        p=table.p,
        family=table.descriptor.label,
        d=d,
        u_d=u_d,
        u_d_times_p=u_d * table.p,
        bound_constant=constant,
        bound=bound,
        bound_satisfied=bool(u_d <= bound + 1e-12),
        elapsed_ms=elapsed * 1e3,
    )


def scan_primes(
    spec: FamilySpec,
    d: int,
    primes,
    work_cap: int = DEFAULT_WORK_CAP,
) -> tuple[list[ScanRecord], list[dict]]:
    """One record per prime; per-item failures are collected, not fatal.

    An empty primes or d < 1 is refused before any table is built.  A bad prime,
    p <= d or a prime too small for the family is refused where the table
    or the record is built, and becomes an error record.
    """
    _check_positive("work_cap", work_cap)
    if d < 1:
        raise ValueError("d must be >= 1")
    primes = list(primes)
    if not primes:
        raise ValueError("primes is empty: scan needs at least one")
    records: list[ScanRecord] = []
    errors: list[dict] = []
    for p in primes:
        try:
            p = int(p)
            records.append(_make_record(make_table(spec, p, work_cap), d, work_cap))
        except Exception as exc:  # per-item error record, scan continues
            errors.append({"p": p, "family": spec.name, "d": d, "error": str(exc)})
    return records, errors


def _baseline_field(p: int, d: int, trials: int, seed: int) -> PrimeField:
    """The field of a baseline at p, refused unless trials >= 1, seed >= 0, d >= 1 and p is
    an odd prime above d."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if d < 1:
        raise ValueError("d must be >= 1")
    _check_p_above_d(p, d)
    return _table_field(p, DEFAULT_WORK_CAP)


def random_baseline(p: int, d: int, trials: int, seed: int) -> BaselineRecord:
    """Average U_d over seeded uniform +-1 functions (PCG64 stream).

    The draw procedure is fixed: one Generator over PCG64(seed), and per
    trial the vector ``integers(0, 2, p) * 2 - 1``.  Identical seeds
    reproduce identical records bit for bit.  p must be an odd prime
    above d, as for a scan record.
    """
    field = _baseline_field(p, d, trials, seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    totals = np.empty(trials)
    for t in range(trials):
        v = (rng.integers(0, 2, p) * 2 - 1).astype(np.complex128)
        totals[t] = gowers_accelerated(v, d, field)
    mean = float(totals.mean())
    return BaselineRecord(
        p=p, d=d, trials=trials, seed=seed,
        mean_u_d=mean, mean_u_d_times_p=mean * p,
    )


# -- verify ------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyConfig:
    families: tuple[str, ...] = DEFAULT_FAMILIES
    d_values: tuple[int, ...] = (1, 2, 3)
    primes: tuple[int, ...] = DEFAULT_PRIMES
    ceiling: float = DEFAULT_CEILING
    baseline_p: int = 101
    baseline_d: int = 2
    baseline_trials: int = 50
    seed: int = 1
    work_cap: int = DEFAULT_WORK_CAP
    stable_output: bool = False

    def __post_init__(self):
        for key in ("families", "d_values", "primes"):
            values = getattr(self, key)
            if not values:
                raise ValueError(f"{key} is empty: verify needs at least one")
            if repeated := [v for i, v in enumerate(values) if v in values[:i]]:
                raise ValueError(f"{key} repeats {repeated[0]!r}: verify runs each once")
        for spec in self.families:
            parse_family(spec)
        if min(self.d_values) < 1 or self.baseline_d < 1:
            raise ValueError("d must be >= 1")
        _check_positive("ceiling", self.ceiling)
        _check_positive("work_cap", self.work_cap)


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _flag(value: str) -> bool:
    if value.lower() not in _FLAGS:
        raise ValueError(f"stable_output must be one of {'/'.join(_FLAGS)}, got {value!r}")
    return _FLAGS[value.lower()]


def _ints(value: str) -> tuple[int, ...]:
    return tuple(int(t) for t in value.replace(",", " ").split())


#: The parser of each config key: one per VerifyConfig field.
_CONFIG_KEYS = {
    "families": lambda value: tuple(value.split()), "d_values": _ints, "primes": _ints,
    "ceiling": float, "baseline_p": int, "baseline_d": int, "baseline_trials": int,
    "seed": int, "work_cap": int, "stable_output": _flag,
}


def load_config(path: str) -> VerifyConfig:
    """Read a flat ``key = value`` config file (# starts a comment).

    ``stable_output`` takes 1/0, true/false or yes/no in any case.  Every
    error in a line, a repeated key included, is reported with its ``path:line``.
    """
    values, lines = {}, {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if (first := lines.setdefault(key, lineno)) != lineno:
                raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {first}")
            try:
                values[key] = _CONFIG_KEYS[key](value.strip())
                VerifyConfig(**{key: values[key]})  # a value refused alone is refused on its line
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return VerifyConfig(**values)


@dataclass(frozen=True)
class VerifyReport:
    config: VerifyConfig
    records: tuple[ScanRecord, ...]
    errors: tuple[dict, ...]
    baseline: BaselineRecord
    agreements: tuple[dict, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.errors


def verify(config: VerifyConfig = VerifyConfig()) -> VerifyReport:
    """Run the full sweep and check bounds, ceilings, and oracle agreement.

    PASS requires: (a) every proven bound holds, (b) every U_d * p is at
    most the empirical ceiling, (c) the production routes agree with their
    oracles at the smallest prime p0.  Before any table is built, p0 and the
    baseline are checked, every p must exceed every d, and p0^d at the
    largest d (the cost of ``gowers_recursive``) must fit the work cap.
    """
    max_d = max(config.d_values)
    bad = [p for p in config.primes if p <= max_d]
    if bad:
        raise ValueError(f"primes {bad} violate the precondition p > d = {max_d}")
    p0 = min(config.primes)
    _refuse_over_cap(f"verify agreement check U_{max_d} at p = {p0}", "p^d",
                     lambda: float(p0) ** max_d, config.work_cap)
    specs = [parse_family(s) for s in config.families]
    field0 = prime_field(p0)
    # Checked here, drawn last: its draw loads numpy.random (~5 MB) after the sweep's peak.
    _baseline_field(config.baseline_p, config.baseline_d, config.baseline_trials, config.seed)
    records: list[ScanRecord] = []
    errors: list[dict] = []
    failures: list[str] = []
    # The production routes against their oracles at the smallest prime.
    agreements: list[dict] = []

    def agree(check: str, delta: float, tol: float, failure: str, **where) -> None:
        ok = delta <= tol  # a NaN delta fails
        agreements.append({"check": check, **where, "p": p0, "delta": delta, "ok": ok})
        if not ok:
            failures.append(failure)

    for p in config.primes:  # one field per prime: prime_field keeps only the last
        for spec in specs:
            try:
                table = make_table(spec, p, config.work_cap)
            except Exception as exc:
                errors.append({"p": p, "family": spec.name, "error": str(exc)})
                continue
            for d in config.d_values:
                try:
                    rec = _make_record(table, d, config.work_cap)
                except Exception as exc:
                    errors.append({"p": p, "family": spec.name, "d": d, "error": str(exc)})
                    continue
                records.append(rec)
                if not rec.bound_satisfied:
                    failures.append(
                        f"bound violated: {rec.family} d={d} p={p}: "
                        f"u_d={rec.u_d:.6g} > {rec.bound:.6g}"
                    )
                if rec.u_d_times_p > config.ceiling:
                    failures.append(
                        f"ceiling exceeded: {rec.family} d={d} p={p}: "
                        f"u_d*p={rec.u_d_times_p:.6g} > {config.ceiling:.6g}"
                    )
                if p == p0:
                    delta = abs(rec.u_d - gowers_recursive(table.values, d))
                    agree("engine", delta, ENGINE_AGREEMENT_TOL,
                          f"engine disagreement: {rec.family} d={d} p={p0}: |accel-rec|={delta:.3g}",
                          family=rec.family, d=d)

    records.sort(key=lambda r: (r.family, r.d, r.p))
    delta = float(np.abs(kloosterman_direct(field0) - kloosterman_trace(field0).values).max())
    agree("kloosterman_methods", delta, KLOOSTERMAN_METHOD_TOL,
          f"kloosterman direct vs transform: {delta:.3g}")
    if p0 >= 5:
        counted = legendre_curve_point_count(field0)
        delta = float(np.abs(counted - legendre_curve_integers(field0)).max())
        agree("legendre_curve_methods", delta, 0.0,
              "legendre_curve point_count vs transform differ")

    baseline = random_baseline(
        config.baseline_p, config.baseline_d, config.baseline_trials, config.seed
    )
    return VerifyReport(
        config=config,
        records=tuple(records),
        errors=tuple(errors),
        baseline=baseline,
        agreements=tuple(agreements),
        failures=tuple(failures),
    )


def summary_table(report: VerifyReport) -> str:
    """Human-readable verify summary (deterministic in stable mode)."""
    lines = []
    show_ms = not report.config.stable_output
    header = f"{'family':<28} {'d':>2} {'p':>5} {'u_d*p':>12} {'bound ok':>8} {'ceiling ok':>10}"
    if show_ms:
        header += f" {'ms':>9}"
    lines.append(header)
    lines.append("-" * len(header))
    for r in report.records:
        row = (
            f"{r.family:<28} {r.d:>2} {r.p:>5} {r.u_d_times_p:>12.6g} "
            f"{str(r.bound_satisfied).lower():>8} "
            f"{str(r.u_d_times_p <= report.config.ceiling).lower():>10}"
        )
        if show_ms:
            row += f" {r.elapsed_ms:>9.2f}"
        lines.append(row)
    b = report.baseline
    lines.append(
        f"baseline: p={b.p} d={b.d} trials={b.trials} seed={b.seed} "
        f"mean u_d*p = {b.mean_u_d_times_p:.6g}"
    )
    for a in report.agreements:
        lines.append(
            f"agreement[{a['check']}] p={a['p']}"
            + (f" d={a['d']}" if "d" in a else "")
            + f": delta={a['delta']:.3g} ok={str(a['ok']).lower()}"
        )
    for e in report.errors:
        lines.append(f"error: {e}")
    for f in report.failures:
        lines.append(f"FAIL: {f}")
    lines.append("RESULT: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


# -- emission ----------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _writing(target):
    """A file object as given, or the path ``target`` opened for writing and closed on exit."""
    if isinstance(target, (str, bytes, os.PathLike)):
        return open(target, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(target)


def _write_json(obj, target) -> None:
    """obj as JSON (indent 2, trailing newline) to a path or file object."""
    with _writing(target) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def emit(records, fmt: str, path_or_file) -> None:
    """Write dataclass records as CSV (their fields as columns,
    17-significant-digit floats) or JSON (same field names, native types)."""
    with _writing(path_or_file) as fh:
        records = list(records)
        if fmt == "csv":
            columns = [f.name for f in fields(records[0])] if records else SCAN_COLUMNS
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for r in records:
                writer.writerow([_fmt(getattr(r, c)) for c in columns])
        elif fmt == "json":
            _write_json([asdict(r) for r in records], fh)
        else:
            raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'json'")


def stable_records(records) -> list:
    """Scan records with the elapsed_ms column zeroed, for byte-stable output."""
    return [replace(r, elapsed_ms=0.0) for r in records]
