"""The inverse-theorem dichotomy in action.

A function over F_p with non-negligible U_d either is (close to) a
polynomial phase e(P(x)/p) of degree < d, or its U_d * p stays small.
This demo plants a phase inside a Kloosterman background, recovers it,
recovers a cubic phase that only the d = 4 scan can see, classifies
several tables, and sets the families' peak phase correlations beside
Weil's constants.
"""

import numpy as np

from gowersff import (
    MultiplicativeCharacter,
    decompose,
    dichotomy_report,
    gowers_accelerated,
    kloosterman_trace,
    legendre_curve_trace,
    make_table,
    max_phase_correlation,
    mixed_ask_trace,
    parse_family,
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

# 4. the inverse theorem's other half: a trace function that is not a phase
#    correlates with every phase of degree < d by at most C / sqrt(p), C from
#    Weil's bound (C at d = 2 / d = 3; legendre_curve, of rank 2, has none yet)
weil = {
    "legendre_poly:1,1,0,1": (3, 4),  # x^3 + x + 1
    "inverse_phase": (2, 3),
    "kloosterman": (1, 3),
    "legendre_curve": None,
}
primes = (101, 211, 503, 1009)
tables = {name: [make_table(parse_family(name), q) for q in primes] for name in weil}
print("\npeak phase correlation * sqrt(p) against the Weil constant C:")
print(f"  {'family':<22} d" + "".join(f"{q:>8}" for q in primes) + "       C")
for d in (2, 3):
    for name, constants in weil.items():
        peaks = [max_phase_correlation(t.values, d, t.field)[0] * t.p**0.5 for t in tables[name]]
        c = "-" if constants is None else constants[d - 2]
        print(f"  {name:<22} {d}" + "".join(f"{x:8.3f}" for x in peaks) + f"{c:>8}")

# U_2 = sum |hat|^4 <= max |hat|^2 * sum |hat|^2, so U_2 * p <= C^2 * E|phi|^2:
# a proven d = 2 bound that is not vacuous (Kloosterman meets it exactly)
print("\nU_2 * p <= C^2 * E|phi|^2, the Weil bound at d = 2:")
for name, constants in weil.items():
    if constants is not None:
        cells = []
        for t in tables[name]:
            bound = constants[0] ** 2 * np.mean(np.abs(t.values) ** 2)
            u2p = gowers_accelerated(t.values, 2, t.field) * t.p
            cells.append(f"{u2p:.3f} <= {bound:.3f}")
        print(f"  {name:<22} " + "  ".join(cells))
