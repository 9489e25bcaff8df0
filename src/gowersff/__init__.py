"""Gowers uniformity norms of algebraic trace functions over F_p.

The package generates the classical trace-function families (Legendre
symbol of a polynomial, inverse additive phase, normalized Kloosterman
sums, Legendre-curve point counts, mixed multiplicative/additive
characters), computes their Gowers pnorms U_d by one accelerated route
checked against two slow oracles, scans for polynomial-phase
obstructions, and sweeps primes to exhibit the U_d ~ 1/p scaling
against explicit proven bounds.
"""

# Each module's __all__ is the one list of its public names.
from .field import *
from .traces import *
from .norms import *
from .probe import *
from .harness import *

__version__ = "0.1.0"
