"""Rebuild references.json: u_d for every (family, d, p) a workload can print.

    python3 perfbench/make_refs.py

Each value is what the CLI computes (the table from ``harness.make_table``,
then ``u1`` or ``gowers_accelerated``).  Before it is written, each one is
cross-checked against two routes that share none of the library's norm or
DFT code: U_2 = sum |numpy.fft(phi)/p|^4 lifted by the recursion
U_{d+1} = mean_h U_d(phi(x+h) conj(phi(x))), and ``gowers_recursive``
wherever its cost p^d stays under RECURSIVE_BUDGET.  Takes a few minutes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gowersff import harness, norms  # noqa: E402

import workloads  # noqa: E402

#: Largest p^d for which the O(p^d) gowers_recursive cross-check is run.
RECURSIVE_BUDGET = 1.2e9


def fft_pnorm(values: np.ndarray, d: int) -> float:
    """U_d by numpy's FFT and the cube recursion, independent of gowersff."""
    p = len(values)
    if d == 1:
        return abs(values.mean()) ** 2
    if d == 2:
        return float((np.abs(np.fft.fft(values) / p) ** 4).sum())
    if d == 3:
        total = 0.0
        chunk = max(1, (1 << 21) // p)
        x = np.arange(p)
        for start in range(0, p, chunk):
            h = np.arange(start, min(start + chunk, p))
            rows = values[(h[:, None] + x[None, :]) % p] * np.conj(values)[None, :]
            total += float((np.abs(np.fft.fft(rows, axis=1) / p) ** 4).sum())
        return total / p
    return float(np.mean([fft_pnorm(np.roll(values, -h) * np.conj(values), d - 1)
                          for h in range(p)]))


def main() -> int:
    refs: dict[str, float] = {}
    worst = {"fft": 0.0, "recursive": 0.0}
    for family, d, p in workloads.reference_specs():
        start = time.perf_counter()
        table = harness.make_table(harness.parse_family(family), p)
        value = norms.u1(table.values) if d == 1 else norms.gowers_accelerated(table.values, d, table.field)
        checks = {"fft": fft_pnorm(table.values, d)}
        if p ** d <= RECURSIVE_BUDGET:
            checks["recursive"] = norms.gowers_recursive(table.values, d)
        for route, other in checks.items():
            if not workloads.close(other, value):
                print(f"error: {family} d={d} p={p}: {route} gives {other!r}, CLI {value!r}",
                      file=sys.stderr)
                return 1
            worst[route] = max(worst[route], abs(value - other) / max(abs(value), workloads.ABS_TOL))
        key = workloads.reference_key(table.descriptor.label, d, p)
        refs[key] = value
        print(f"{key:<50} {value:.17g}  [{', '.join(checks)}] {time.perf_counter() - start:.1f} s",
              flush=True)
    out = {
        "about": "u_d per 'label|d|p', built by make_refs.py and cross-checked as it describes",
        "numpy": np.__version__,
        "max_rel_diff": worst,
        "u_d": refs,
    }
    path = Path(__file__).with_name("references.json")
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(refs)} values to {path.name}; worst relative differences {worst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
