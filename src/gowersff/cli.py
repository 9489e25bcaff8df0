"""Command-line interface: gen, norm, probe, scan, verify, baseline.

Exit codes: 0 success / verify PASS, 1 verify FAIL, 2 usage error
(including refused preconditions, work-cap refusals and tables that do
not fit in memory).
"""

from __future__ import annotations

import argparse
import json
import sys

from .field import is_prime
from .norms import DEFAULT_WORK_CAP, WorkCapExceeded
from .probe import probe_report
from .harness import (
    DEFAULT_CEILING,
    VerifyConfig,
    _make_record,
    _writing,
    emit,
    load_config,
    make_table,
    parse_family,
    random_baseline,
    scan_primes,
    stable_records,
    summary_table,
    verify,
)

__all__ = ["main"]


def _parse_primes(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = (int(t) for t in text.split("..", 1))
        return [p for p in range(lo, hi + 1) if is_prime(p) and p != 2]
    return [int(t) for t in text.split(",") if t.strip()]


def _out(args):
    """Where --output points: stdout for none or "-", else the path."""
    return sys.stdout if args.output in (None, "-") else args.output


def _cmd_gen(args) -> int:
    spec = parse_family(args.family, args.family_args)
    table = make_table(spec, args.p)
    with _writing(_out(args)) as fh:
        d = table.descriptor
        fh.write(f"# family={d.label} p={table.p} rank={d.rank} conductor={d.conductor}\n")
        for x, v in enumerate(table.values):
            fh.write(f"{x},{v.real:.17g},{v.imag:.17g}\n")
    return 0


def _cmd_norm(args) -> int:
    spec = parse_family(args.family, args.family_args)
    table = make_table(spec, args.p, args.work_cap)
    record = _make_record(spec, table, args.d, args.work_cap)
    emit([record], args.format, _out(args))
    return 0


def _cmd_probe(args) -> int:
    spec = parse_family(args.family, args.family_args)
    table = make_table(spec, args.p)
    report = probe_report(table, args.d, args.threshold, args.ceiling)
    with _writing(_out(args)) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_scan(args) -> int:
    spec = parse_family(args.family, args.family_args)
    records, errors = scan_primes(spec, args.d, _parse_primes(args.primes), args.work_cap)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    emit(records, args.format, _out(args))
    return 0


def _cmd_verify(args) -> int:
    config = load_config(args.config) if args.config else VerifyConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.ceiling is not None:
        overrides["ceiling"] = args.ceiling
    if args.work_cap is not None:
        overrides["work_cap"] = args.work_cap
    if args.stable_output:
        overrides["stable_output"] = True
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    report = verify(config)
    sys.stdout.write(summary_table(report))
    if args.output:
        records = stable_records(report.records) if config.stable_output else report.records
        emit(records, args.format, _out(args))
    return 0 if report.passed else 1


def _cmd_baseline(args) -> int:
    record = random_baseline(args.p, args.d, args.trials, args.seed)
    emit([record], args.format, _out(args))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gowersff",
        description="Gowers uniformity norms of algebraic trace functions over F_p",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, required=True):
        p.add_argument("--family", required=required,
                       help="legendre_poly | inverse_phase | kloosterman | "
                            "legendre_curve | mixed_ask")
        p.add_argument("--family-args", default=None,
                       help="family arguments (e.g. 1,1,0,1 for legendre_poly)")

    def add_output(p, formats=True):
        p.add_argument("--output", default=None, help="output path (default stdout)")
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    g = sub.add_parser("gen", help="emit a trace table as CSV")
    g.add_argument("--p", type=int, required=True)
    add_family(g)
    add_output(g, formats=False)
    g.set_defaults(func=_cmd_gen)

    n = sub.add_parser("norm", help="compute one U_d value")
    n.add_argument("--p", type=int, required=True)
    add_family(n)
    n.add_argument("--d", type=int, required=True)
    n.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)
    add_output(n)
    n.set_defaults(func=_cmd_norm)

    pr = sub.add_parser("probe", help="polynomial-phase obstruction report (JSON)")
    pr.add_argument("--p", type=int, required=True)
    add_family(pr)
    pr.add_argument("--d", type=int, required=True)
    pr.add_argument("--threshold", type=float, default=0.5)
    pr.add_argument("--ceiling", type=float, default=DEFAULT_CEILING)
    add_output(pr, formats=False)
    pr.set_defaults(func=_cmd_probe)

    s = sub.add_parser("scan", help="sweep one family/d across primes")
    add_family(s)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--primes", required=True,
                   help="comma list (101,499) or range (101..199, primes only)")
    s.add_argument("--work-cap", type=int, default=DEFAULT_WORK_CAP)
    add_output(s)
    s.set_defaults(func=_cmd_scan)

    v = sub.add_parser("verify", help="full sweep + bound/ceiling/agreement checks")
    v.add_argument("--config", default=None, help="flat key = value config file")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--ceiling", type=float, default=None)
    v.add_argument("--work-cap", type=int, default=None)
    v.add_argument("--stable-output", action="store_true",
                   help="zero timing columns so repeated runs are byte-identical")
    add_output(v)
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("baseline", help="mean U_d of seeded random +-1 functions")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--trials", type=int, default=50)
    b.add_argument("--seed", type=int, default=1)
    add_output(b)
    b.set_defaults(func=_cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, WorkCapExceeded, OSError, ZeroDivisionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
