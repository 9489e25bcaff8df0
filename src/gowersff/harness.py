"""Prime sweeps, proven-bound checks, random baselines, and persistence.

Each family carries an explicit bound U_d <= C^((d+1) 2^d) / p with base
constant C = 5m+10 (Legendre of a degree-m polynomial), 15 (inverse
phase), 20 (Kloosterman), 25 (Legendre curve); a generic family of
conductor c uses C = 5c.  These constants are astronomically generous
at desk scale, so scans also check the informative quantity U_d * p
against a modest configurable ceiling (default 10^3): boundedness of
U_d * p across a prime sweep is what makes the 1/p scaling visible.

Random baselines average U_d over independent uniform +-1 functions
drawn from numpy's PCG64 generator (fixed algorithm; the seed is
recorded in the output), matching the heuristic that random bounded
mean-zero functions have U_d of size 1/p.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .field import prime_field
from .norms import (
    DEFAULT_WORK_CAP,
    _refuse_over_cap,
    evaluate,
    gowers_recursive,
    gowers_accelerated,
)
from .traces import (
    MultiplicativeCharacter,
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
    "generic_bound_constant",
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

DEFAULT_CEILING = 1e3
DEFAULT_PRIMES = (101, 211, 499, 997)
DEFAULT_FAMILIES = (
    "legendre_poly:1,1,0,1",  # f = X^3 + X + 1, ascending coefficients
    "inverse_phase",
    "kloosterman",
    "legendre_curve",
)

ENGINE_AGREEMENT_TOL = 1e-9
KLOOSTERMAN_METHOD_TOL = 1e-8


def _check_positive(name: str, value: float) -> None:
    """Refuse a ceiling, threshold or work cap that is not finite and positive."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _check_p_above_d(p: int, d: int) -> None:
    if p <= d:
        raise ValueError(f"p = {p} violates the precondition p > d = {d}")


def _check_table_cost(p: int, work_cap: int) -> None:
    """Refuse, before any field is built, a table costing p * log2 p over the cap."""
    est = p * math.log2(p) if p > 1 else 0.0
    _refuse_over_cap(f"table at p = {p}", "p * log2 p", est, work_cap)


def _power(base: float, exponent: int) -> float:
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


def generic_bound_constant(conductor: int, d: int) -> float:
    """(5c)^((d+1) 2^d) for a family of conductor c; inf when it overflows."""
    return _power(5 * conductor, (d + 1) * 2**d)


#: Base constants C of the named families (legendre_poly's is 5m+10, a generic one's 5c).
_BOUND_BASES = {"inverse_phase": 15, "kloosterman": 20, "legendre_curve": 25}


def bound_constant(family: str, d: int, m: int | None = None,
                   conductor: int | None = None) -> float:
    """The proven bound constant for a named family (or generic conductor).

    Overflow yields +inf: the bound is then trivially satisfied and
    should be reported as vacuous.
    """
    if family == "legendre_poly":
        if m is None:
            raise ValueError("legendre_poly bound needs the degree m")
        return _power(5 * m + 10, (d + 1) * 2**d)
    if family in _BOUND_BASES:
        return _power(_BOUND_BASES[family], (d + 1) * 2**d)
    if conductor is not None:
        return generic_bound_constant(conductor, d)
    raise ValueError(f"no bound constant for family {family!r} without a conductor")


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
    if "/" in text:
        num, den = text.split("/", 1)
        return _parse_coeffs(num), _parse_coeffs(den) or (1,)
    return _parse_coeffs(text), (1,)


def parse_family(spec: str, args: str | None = None) -> FamilySpec:
    """Parse 'name' / 'name:args' selectors (args may come separately).

    legendre_poly args are the ascending coefficients of f, e.g.
    ``1,1,0,1`` for X^3 + X + 1.  mixed_ask args are semicolon-separated
    ``f1=<num>/<den>; f2=<num>/<den>; chi=<index|q>`` coefficient lists.
    """
    if ":" in spec:
        spec, inline = spec.split(":", 1)
        args = inline if args is None else args
    name = spec.strip()
    if name in ("inverse_phase", "kloosterman", "legendre_curve"):
        return FamilySpec(name=name)
    if name == "legendre_poly":
        if not args:
            raise ValueError("legendre_poly needs coefficients, e.g. legendre_poly:1,1,0,1")
        text = args.split("=", 1)[1] if args.startswith("f=") else args
        return FamilySpec(name=name, coeffs=_parse_coeffs(text))
    if name == "mixed_ask":
        fields = {"f1": "0", "f2": "1", "chi": "0"}
        for part in (args or "").split(";"):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            if key.strip() not in fields:
                raise ValueError(f"unknown mixed_ask argument {key.strip()!r}")
            fields[key.strip()] = value.strip()
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
    _check_table_cost(p, work_cap)
    field = prime_field(p)
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
        chi = MultiplicativeCharacter(field, index)
        return mixed_ask_trace(spec.f1, spec.f2, chi, field)
    raise ValueError(f"unknown family {spec.name!r}")


# -- records -----------------------------------------------------------------

SCAN_COLUMNS = (
    "p", "family", "d", "engine", "u_d", "u_d_times_p",
    "bound_constant", "bound", "bound_satisfied", "elapsed_ms",
)

BASELINE_COLUMNS = ("p", "d", "trials", "seed", "mean_u_d", "mean_u_d_times_p")


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


def _make_record(spec: FamilySpec, table: TraceTable, d: int, work_cap: int) -> ScanRecord:
    _check_p_above_d(table.p, d)
    result = evaluate(table, d, work_cap)
    constant = bound_constant(spec.name, d, m=len(spec.coeffs) - 1,
                              conductor=table.descriptor.conductor)
    bound = constant / table.p
    return ScanRecord(
        p=table.p,
        family=table.descriptor.label,
        d=d,
        u_d=result.u_d,
        u_d_times_p=result.u_d_times_p,
        bound_constant=constant,
        bound=bound,
        bound_satisfied=bool(result.u_d <= bound + 1e-12),
        elapsed_ms=result.elapsed * 1e3,
    )


def scan_primes(
    spec: FamilySpec,
    d: int,
    primes,
    work_cap: int = DEFAULT_WORK_CAP,
) -> tuple[list[ScanRecord], list[dict]]:
    """One record per prime; per-item failures are collected, not fatal.

    A bad prime, p <= d or a prime too small for the family is refused
    where the table or the record is built, and becomes an error record.
    """
    _check_positive("work_cap", work_cap)
    records: list[ScanRecord] = []
    errors: list[dict] = []
    for p in primes:
        try:
            p = int(p)
            records.append(_make_record(spec, make_table(spec, p, work_cap), d, work_cap))
        except Exception as exc:  # per-item error record, scan continues
            errors.append({"p": p, "family": spec.name, "d": d, "error": str(exc)})
    return records, errors


def random_baseline(p: int, d: int, trials: int, seed: int) -> BaselineRecord:
    """Average U_d over seeded uniform +-1 functions (PCG64 stream).

    The draw procedure is fixed: one Generator over PCG64(seed), and per
    trial the vector ``integers(0, 2, p) * 2 - 1``.  Identical seeds
    reproduce identical records bit for bit.  p must be an odd prime
    above d, as for a scan record.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_p_above_d(p, d)
    _check_table_cost(p, DEFAULT_WORK_CAP)
    field = prime_field(p)
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
        _check_positive("ceiling", self.ceiling)
        _check_positive("work_cap", self.work_cap)


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def load_config(path: str) -> VerifyConfig:
    """Read a flat ``key = value`` config file (# starts a comment).

    ``stable_output`` takes 1/0, true/false or yes/no in any case.
    """
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "families":
                values["families"] = tuple(value.split())
            elif key in ("d_values", "primes"):
                values[key] = tuple(int(t) for t in value.replace(",", " ").split())
            elif key in ("ceiling",):
                values[key] = float(value)
            elif key == "stable_output":
                if value.lower() not in _FLAGS:
                    raise ValueError(
                        f"{path}:{lineno}: stable_output must be one of "
                        f"{'/'.join(_FLAGS)}, got {value!r}"
                    )
                values[key] = _FLAGS[value.lower()]
            elif key in ("baseline_p", "baseline_d", "baseline_trials", "seed", "work_cap"):
                values[key] = int(value)
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
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
    oracles at the smallest prime p0.  Before any table is built, every p
    must exceed every d, and p0^d at the largest d (the cost of
    ``gowers_recursive``) must fit the work cap.
    """
    max_d = max(config.d_values)
    bad = [p for p in config.primes if p <= max_d]
    if bad:
        raise ValueError(f"primes {bad} violate the precondition p > d = {max_d}")
    p0 = min(config.primes)
    _refuse_over_cap(f"verify agreement check U_{max_d} at p = {p0}", "p^d",
                     p0**max_d, config.work_cap)

    specs = [parse_family(s) for s in config.families]
    records: list[ScanRecord] = []
    errors: list[dict] = []
    failures: list[str] = []

    tables: dict[tuple[str, int], TraceTable] = {}
    for spec, fam in zip(specs, config.families):
        for p in config.primes:
            try:
                tables[(fam, p)] = make_table(spec, p, config.work_cap)
            except Exception as exc:
                errors.append({"p": p, "family": spec.name, "error": str(exc)})

    for spec, fam in zip(specs, config.families):
        for d in config.d_values:
            for p in config.primes:
                table = tables.get((fam, p))
                if table is None:
                    continue
                try:
                    rec = _make_record(spec, table, d, config.work_cap)
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

    records.sort(key=lambda r: (r.family, r.d, r.p))

    # The production routes against their oracles at the smallest prime.
    agreements: list[dict] = []

    def agree(check: str, delta: float, tol: float, failure: str, **where) -> None:
        ok = delta <= tol  # a NaN delta fails
        agreements.append({"check": check, **where, "p": p0, "delta": delta, "ok": ok})
        if not ok:
            failures.append(failure)

    field0 = prime_field(p0)
    for spec, fam in zip(specs, config.families):
        table = tables.get((fam, p0))
        if table is None:
            continue
        for d in config.d_values:
            primary = gowers_accelerated(table.values, d, field0, work_cap=config.work_cap)
            delta = abs(primary - gowers_recursive(table.values, d))
            agree("engine", delta, ENGINE_AGREEMENT_TOL,
                  f"engine disagreement: {fam} d={d} p={p0}: |accel-rec|={delta:.3g}",
                  family=table.descriptor.label, d=d)
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

    report = VerifyReport(
        config=config,
        records=tuple(records),
        errors=tuple(errors),
        baseline=baseline,
        agreements=tuple(agreements),
        failures=tuple(failures),
    )
    return report


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


def _record_fields(record) -> tuple:
    if isinstance(record, ScanRecord):
        return SCAN_COLUMNS
    if isinstance(record, BaselineRecord):
        return BASELINE_COLUMNS
    raise TypeError(f"cannot emit {type(record).__name__}")


@contextmanager
def _writing(target):
    """A file object as given, or the path ``target`` opened for writing and closed on exit."""
    if not isinstance(target, (str, bytes)):
        yield target
        return
    with open(target, "w", encoding="utf-8", newline="") as fh:
        yield fh


def emit(records, fmt: str, path_or_file) -> None:
    """Write records as CSV (exact column set, 17-significant-digit
    floats) or JSON (same field names, native types)."""
    with _writing(path_or_file) as fh:
        records = list(records)
        if fmt == "csv":
            columns = _record_fields(records[0]) if records else SCAN_COLUMNS
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for r in records:
                writer.writerow([_fmt(getattr(r, c)) for c in columns])
        elif fmt == "json":
            payload = [
                {c: getattr(r, c) for c in _record_fields(r)} for r in records
            ]
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            raise ValueError(f"unknown format {fmt!r}; use 'csv' or 'json'")


def stable_records(records) -> list:
    """Zero the elapsed_ms column for byte-stable output."""
    return [replace(r, elapsed_ms=0.0) if isinstance(r, ScanRecord) else r
            for r in records]
