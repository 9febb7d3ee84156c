"""Executable enumerability checks for arbitrary integer polynomials.

A nonvanishing f admits the bijective tree enumeration of its divisor pairs
exactly when every pair (m, n) with m | |f(n)|, other than the root (1, 0),
satisfies

    min(m, |f(n)|/m)  <=  n  <  max(m, |f(n)|/m)

A LEFT violation (min > n) witnesses a pair the tree never reaches, i.e.
failure of surjectivity; a RIGHT violation (n >= max) witnesses a pair reached
twice, i.e. failure of injectivity.  The left inequality is an equality only
at (1, 1).

A finite scan can only certify failure, never enumerability; this module
produces counterexample certificates or bounded-range evidence.

For polynomials that grow at least quadratically with leading coefficient 2
or more (or any growth of degree 3 and up) a violation can be constructed
outright: pick a with |f(-a)| > 3a and 2 f(n) > 3 n^2 for all n > 2a; then
n0 = |f(-a)| - a gives f(n0) = (n0 + a)(n0 + b) with both factors above n0.
"""

from ._record import Record
from .arith import divisors
from .pairs import Poly, PolyLike, as_poly, make_pair, poly

__all__ = [
    "LEFT",
    "RIGHT",
    "ViolationCertificate",
    "PolynomialVanishes",
    "check_condition",
    "scan_violations",
    "injectivity_surjectivity_report",
    "composite_witness",
]

LEFT = "LEFT"
RIGHT = "RIGHT"


class PolynomialVanishes(ValueError):
    """f has a root on the scanned range, so the tree is not defined there."""

    def __init__(self, f: Poly, root: int):
        self.f = f
        self.root = root
        super().__init__(f"f = {f} vanishes at n = {root}")


class ViolationCertificate(Record):
    """One pair breaking the reachability inequality on side LEFT or RIGHT; detail shows how."""

    __slots__ = ("f", "m", "n", "side", "detail")


def check_condition(f: PolyLike, m: int, n: int) -> ViolationCertificate | None:
    """Check one pair; None on pass, a certificate on violation.

    Requires m >= 1 dividing |f(n)|, (m, n) != (1, 0), and f(n) != 0.
    """
    f = as_poly(f)
    value = f(n)
    if value == 0:
        raise PolynomialVanishes(f, n)
    make_pair(m, n, f)
    if (m, n) == (1, 0):
        raise ValueError("the root pair (1, 0) is excluded from the condition")
    return _violation(f, m, n, abs(value) // m)


def _violation(f: Poly, m: int, n: int, cof: int) -> ViolationCertificate | None:
    lo, hi = min(m, cof), max(m, cof)
    if lo > n:
        return ViolationCertificate(
            f, m, n, LEFT, f"min({m}, {cof}) = {lo} > n = {n}"
        )
    if n >= hi:
        return ViolationCertificate(
            f, m, n, RIGHT, f"n = {n} >= max({m}, {cof}) = {hi}"
        )
    return None


def scan_violations(f: PolyLike, n_max: int) -> list[ViolationCertificate]:
    """All violations with n <= n_max, over every divisor m of |f(n)|.

    Ordered by (n, m).  Empty for the four tree-enumerable quadratics at any
    bound.  Raises PolynomialVanishes at the first root encountered, and lets
    a factorization give-up (astronomically large |f(n)|) propagate rather
    than return a silently incomplete list.
    """
    f = as_poly(f)
    out: list[ViolationCertificate] = []
    for n in range(n_max + 1):
        value = abs(f(n))
        if value == 0:
            raise PolynomialVanishes(f, n)
        for m in divisors(value):
            if (m, n) == (1, 0):
                continue
            cert = _violation(f, m, n, value // m)
            if cert is not None:
                out.append(cert)
    return out


def injectivity_surjectivity_report(f: PolyLike, n_max: int) -> dict:
    """Split a scan by side: RIGHT hits injectivity, LEFT hits surjectivity."""
    certs = scan_violations(f, n_max)
    left = [c for c in certs if c.side == LEFT]
    right = [c for c in certs if c.side == RIGHT]
    return {
        "injective_up_to": not right,
        "surjective_up_to": not left,
        "witnesses": {"injectivity": right, "surjectivity": left},
    }


def _cauchy_bound(coeffs: tuple[int, ...]) -> int:
    # All real roots of the polynomial lie strictly below this integer.
    lead = coeffs[-1]
    biggest = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    return 1 + -(-biggest // lead)


def _growth_certified(f: Poly, lower: int) -> bool:
    """Certified check that 2 f(n) > 3 n^2 for every integer n > lower.

    g = 2f - 3x^2 has positive leading coefficient for every f composite_witness
    admits, so g > 0 beyond its Cauchy root bound; the finitely many n in
    (lower, bound] are checked exactly.
    """
    cs = [2 * c for c in f.coeffs]
    cs[2] -= 3
    g = poly(*cs)
    return all(g(n) > 0 for n in range(lower + 1, _cauchy_bound(g.coeffs) + 1))


def composite_witness(f: PolyLike) -> tuple[int, int, int, int]:
    """Construct (a, n0, factor1, factor2) with f(n0) = factor1 * factor2.

    Both factors exceed n0, so (factor1, n0) is a LEFT violation and f cannot
    be tree-enumerable.  Requires a positive leading coefficient and either
    degree >= 3, or degree 2 with leading coefficient >= 2.  a is the smallest
    value satisfying |f(-a)| > 3a together with the certified growth bound.
    Nothing is re-tested: n0 + a = |f(-a)| divides f(n0), as n0 is -a modulo it, and
    n0 > 2a gives 2 f(n0) > 3 n0^2 > 2 n0 (n0 + a), so the cofactor exceeds n0.
    """
    f = as_poly(f)
    deg = f.degree
    if not (f.coeffs and f.leading > 0 and (deg >= 3 or (deg == 2 and f.leading >= 2))):
        raise ValueError(
            f"f = {f} is outside the witness construction's range"
            " (need positive lead and degree >= 3, or degree 2 with lead >= 2)"
        )
    a = 1
    while not (abs(f(-a)) > 3 * a and _growth_certified(f, 2 * a)):  # both hold for large a
        a += 1
    n0 = abs(f(-a)) - a
    return (a, n0, n0 + a, f(n0) // (n0 + a))
