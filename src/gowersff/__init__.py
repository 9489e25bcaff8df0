"""Gowers uniformity norms of algebraic trace functions over F_p.

The package generates the classical trace-function families (Legendre
symbol of a polynomial, inverse additive phase, normalized Kloosterman
sums, Legendre-curve point counts, mixed multiplicative/additive
characters), computes their Gowers pnorms U_d by one accelerated route
checked against two slow oracles, scans for polynomial-phase
obstructions, and sweeps primes to exhibit the U_d ~ 1/p scaling
against explicit proven bounds.
"""

from .field import PrimeField, is_prime, prime_field
from .traces import (
    INFINITY,
    FamilyDescriptor,
    MultiplicativeCharacter,
    TraceTable,
    conductor_bound_xi,
    exceptional_set,
    fourier_trace,
    inverse_phase_trace,
    kloosterman_direct,
    kloosterman_trace,
    legendre_curve_integers,
    legendre_curve_point_count,
    legendre_curve_trace,
    legendre_poly_trace,
    mixed_ask_trace,
)
from .norms import (
    DEFAULT_WORK_CAP,
    NormResult,
    WorkCapExceeded,
    evaluate,
    gowers_accelerated,
    gowers_norm,
    gowers_oracle,
    gowers_recursive,
    u1,
    xi,
)
from .probe import (
    Decomposition,
    DichotomyReport,
    PhaseComponent,
    decompose,
    dichotomy_report,
    max_phase_correlation,
    phase_correlation,
    probe_report,
    scan_obstructions,
)
from .harness import (
    BaselineRecord,
    ScanRecord,
    VerifyConfig,
    VerifyReport,
    bound_constant,
    emit,
    generic_bound_constant,
    load_config,
    make_table,
    parse_family,
    random_baseline,
    scan_primes,
    verify,
)

__version__ = "0.1.0"
