"""Divisor-pair trees of four integer quadratics over the free S/T matrix monoid.

The monoid of nonnegative 2x2 integer matrices with determinant 1 enumerates,
bijectively and compatibly with its two generators, the divisor pairs of
exactly four quadratics (up to sign): x^2 + 1, x^2 + x + 1, x^2 + 2x - 1 and
x^2 + 3x + 1.  This package provides exact tree generation, the inverse
algorithm back to generator words, the 2-regular second-component sequences,
divisor-count and primality views of tree fibers, row-sum analytics,
alternating prime-product representations, and a violation scanner for
arbitrary integer polynomials.
"""

from . import analytics, classify, maps, monoid, pairs, sseq
from .analytics import *
from .classify import *
from .maps import *
from .monoid import *
from .pairs import *
from .sseq import *

__version__ = "0.1.0"

# Each module's __all__ is its list of public names; the package re-exports them all.
__all__ = [
    *monoid.__all__,
    *pairs.__all__,
    *maps.__all__,
    *sseq.__all__,
    *classify.__all__,
    *analytics.__all__,
]
