"""Sweep the families across primes and watch U_d * p stay flat.

Writes sweep.csv (d = 1, 2, 3 over one decade) next to this script and
prints the comparison against the proven bound constants, a d = 2 table
over four decades (p = 101 ... 1000003; every family is generated in
O(p log p) or better), and a seeded random baseline.  Then the limit of
U_d * p at d = 3 and 4, against the rule U_d * p -> (d - 2) + M: M = 3
when the rows' spectra are real up to a rotation (a Hermitian table at
even d - 2, an even one at odd d - 2, legendre_curve at both) and 2
otherwise.
"""

from pathlib import Path

import numpy as np

from gowersff import FIXED_FAMILIES, bound_constant, emit, parse_family, random_baseline, scan_primes

primes = (101, 211, 499, 997)
families = ("legendre_poly:1,1,0,1", "inverse_phase", "kloosterman", "legendre_curve")
records = []
for family in families:
    spec = parse_family(family)
    for d in (1, 2, 3):
        recs, errors = scan_primes(spec, d, primes)
        assert not errors
        records.extend(recs)

records.sort(key=lambda r: (r.family, r.d, r.p))
out = Path(__file__).with_name("sweep.csv")
emit(records, "csv", out)
print(f"wrote {out}")

print(f"\n{'family':<26} {'d':>2} " + "".join(f"{p:>12}" for p in primes))
for family in sorted({r.family for r in records}):
    for d in (1, 2, 3):
        row = [r for r in records if r.family == family and r.d == d]
        cells = "".join(f"{r.u_d_times_p:12.4g}" for r in row)
        print(f"{family:<26} {d:>2} {cells}")

print("\nValues above are U_d * p: no growth with p means U_d tracks 1/p.")
print("The proven constants are huge by comparison, e.g. the d = 2")
print(f"Kloosterman constant is {bound_constant(FIXED_FAMILIES['kloosterman'].conductor, 2):.3g}.")

decades = (101, 1009, 10007, 100003, 1000003)
print(f"\nU_2 * p over four decades\n{'family':<26} " + "".join(f"{p:>12}" for p in decades))
for family in families:
    recs, errors = scan_primes(parse_family(family), 2, decades)
    assert not errors
    cells = "".join(f"{r.u_d_times_p:12.4g}" for r in recs)
    print(f"{recs[0].family:<26} {cells}")
print("U_2 * p stays near 2 (near 1 for Kloosterman) across four decades of p.")

base = random_baseline(101, 2, trials=50, seed=1)
print(f"\nrandom +-1 baseline at p=101, d=2 (50 trials, seed 1): "
      f"mean U_2 * p = {base.mean_u_d_times_p:.3f}")
print("The algebraic families land in the same range as random noise.")

phases = {"inverse_phase": "inverse_phase", "e(x^-2)": "mixed_ask:f1=1/0,0,1;chi=0",
          "e(x^-3)": "mixed_ask:f1=1/0,0,0,1;chi=0", "legendre_curve": "legendre_curve"}
law = {3: ((211, 503, 1009), (3, 4, 3, 4)), 4: ((101, 211, 307), (5, 4, 5, 5))}
print("\nU_d * p against its predicted limit (d - 2) + M, and c0 of a fit c0 + c1/p")
for d, (ps, limits) in law.items():
    print(f"{'family':<16} {'d':>2} " + "".join(f"{p:>8}" for p in ps) + f"{'limit':>8}{'c0':>8}")
    for (name, family), limit in zip(phases.items(), limits):
        recs, errors = scan_primes(parse_family(family), d, ps)
        assert not errors
        values = [r.u_d_times_p for r in recs]
        c0 = np.polyfit(1 / np.array(ps), values, 1)[1]  # U_d * p = c0 + c1/p
        cells = "".join(f"{v:8.3f}" for v in values)
        print(f"{name:<16} {d:>2} {cells}{limit:>8}{c0:8.3f}")
    base = random_baseline(ps[-1], d, trials=10, seed=1)
    print(f"random +-1 baseline at p={ps[-1]}, d={d} ({base.trials} trials, seed 1): "
          f"mean U_{d} * p = {base.mean_u_d_times_p:.3f}, limit {d}")
