"""Walk through the four explicit trace-function families at p = 101.

Generates each family, prints a few values and descriptor metadata, and
computes U_d by the production route and by the slow oracles to show
they agree: ``gowers_recursive`` at every d, and the unrolled cube sum
``gowers_oracle`` for d <= 2 (at d = 3 it sums p^4 terms per corner and
would take seconds per family).
"""

import numpy as np

from gowersff import (
    evaluate,
    gowers_oracle,
    gowers_recursive,
    inverse_phase_trace,
    kloosterman_trace,
    legendre_curve_trace,
    legendre_poly_trace,
    prime_field,
)

p = 101
F = prime_field(p)

tables = [
    legendre_poly_trace((1, 1, 0, 1), F),   # (f(x)/p) for f = X^3 + X + 1
    inverse_phase_trace(F),                 # e(inv(x)/p)
    kloosterman_trace(F),                   # S(x,1;p)/sqrt(p)
    legendre_curve_trace(F),                # (p - N(x))/sqrt(p)
]

for table in tables:
    d = table.descriptor
    print(f"\n{d.label}  (rank {d.rank}, singular {sorted(d.singular_set)}, "
          f"conductor {d.conductor})")
    print("  first values:", np.round(table.values[:4], 4))
    print("  max |value| :", round(float(np.abs(table.values).max()), 4))
    for deg in (1, 2, 3):
        u = evaluate(table, deg)
        results = [u, gowers_recursive(table.values, deg)]
        if deg <= 2:
            results.append(gowers_oracle(table.values, deg))
        spread = max(results) - min(results)
        print(f"  U_{deg} = {u:.3e}   U_{deg}*p = {u * p:8.4f}   "
              f"oracle spread = {spread:.1e}")

print("\nThe production route agrees with gowers_recursive at every d and with")
print("the cube-sum oracle at d <= 2, to ~1e-15; every U_d * p is a small")
print("constant, which is the 1/p decay these families are built to exhibit.")
