"""The inverse-theorem dichotomy in action.

A function over F_p with non-negligible U_d either is (close to) a
polynomial phase e(P(x)/p) of degree < d, or its U_d * p stays small.
This demo plants a phase inside a Kloosterman background, recovers it,
recovers a cubic phase that only the d = 4 scan can see, and classifies
several tables.
"""

import numpy as np

from gowersff import (
    MultiplicativeCharacter,
    decompose,
    dichotomy_report,
    gowers_accelerated,
    kloosterman_trace,
    legendre_curve_trace,
    mixed_ask_trace,
    prime_field,
    scan_obstructions,
)

p = 101
F = prime_field(p)

# 1. plant e(x^2/p) on top of the Kloosterman table and take it back out
x = np.arange(p)
planted = F.char_table[(x * x) % p]
noisy = kloosterman_trace(F).values + planted

dec = decompose(noisy, d=3, threshold=0.5, field=F)
print("planted-phase recovery at p = 101, d = 3:")
for comp in dec.components:
    print(f"  found P with coeffs {comp.coeffs} (ascending), "
          f"beta = {comp.beta:.4f}")
residual = gowers_accelerated(dec.t1, 3, F)
print(f"  residual U_3 * p = {residual * p:.3f}  (the Kloosterman part is uniform)")

# 2. a cubic phase e((7x^3 + 4x)/p) has no quadratic obstruction, but the
#    full d = 4 scan over all p^3 cubics finds it exactly
chi = MultiplicativeCharacter(F, 0)
cubic_phase = mixed_ask_trace(((0, 4, 0, 7), (1,)), ((1,), (1,)), chi, F)
print("\nplanted cubic e((7x^3 + 4x)/p) at p = 101:")
for d in (3, 4):
    found = [(c.coeffs, round(c.magnitude, 4))
             for c in scan_obstructions(cubic_phase.values, d, 0.5, F)]
    print(f"  d = {d} scan: {found}")

# 3. classify tables: exact phases vs. genuinely uniform families
linear_phase = mixed_ask_trace(((0, 1), (1,)), ((1,), (1,)), chi, F)

print("\ndichotomy reports:")
for table, d in [
    (linear_phase, 2),
    (cubic_phase, 4),
    (kloosterman_trace(prime_field(499)), 2),
    (legendre_curve_trace(F), 3),
]:
    rep = dichotomy_report(table, d)
    print(f"  {rep.family:<33} d={rep.d} p={rep.p:>4}: "
          f"max corr = {rep.max_correlation:.4f}, "
          f"U_d*p = {rep.u_d_times_p:9.4f}  ->  {rep.branch}")
