"""Row statistics of the pair trees and alternating prime-product identities.

Row sums for the x^2 + 1 tree satisfy second-order linear recursions:

    M_k = 5 M_{k-1} - 2 M_{k-2}     M_0 = 1, M_1 = 3   (first components)
    N_k = 5 N_{k-1} - 2 N_{k-2}     N_0 = 0, N_1 = 2   (second components)
    R_k = R_{k-1} + 3 * 2^(k-2)     R_0 = 0            (ratio sums n/m)

with the exact closed form R_k = (3/2)(2^k - 1), so the row average R_k / 2^k
tends to 3/2.  On all four trees, beta the linear coefficient of f, M and N follow
M_k = 3 M_{k-1} + 2 N_{k-1} + beta * 2^(k-1) and N_k = 2 M_{k-1} + 2 N_{k-1} for
k >= 2; only the ratio sums of beta != 0 have no step on record, so row_stats sums
rows directly.  Ratio sums are kept as exact rationals throughout.

Every prime p dividing some |f(n)| (f one of the four quadratics) is an alternating
product of polynomial values at the second components of the reduction chain of (p, n):

    p = |f(n_k)| / |f(n_{k-1})| * |f(n_{k-2})| / ...      n_1 < ... < n_k < p

equal-valued adjacent factors are left uncancelled; verify prime-reps checks the product.
The n_i are read off the reduction's passes (maps._passes): no word, index or chain is built.
"""

from math import gcd
from typing import TYPE_CHECKING, Iterable

from ._record import Record, at_least
from .arith import is_prime, primes_up_to, sqrt_mod
from .maps import DEFAULT_NODE_BUDGET, _passes, check_tree_size
from .pairs import BadPair, EnumerablePoly, make_pair
from .sseq import kernel_for

if TYPE_CHECKING:  # fractions is imported where a Fraction is built
    from fractions import Fraction

__all__ = [
    "RowStats",
    "row_stats",
    "row_stats_direct",
    "row_stats_recursive",
    "ratio_closed_form",
    "PrimeRepresentation",
    "prime_representation",
    "roots_mod_p",
    "primes_with_divisor",
]


class RowStats(Record):
    """Exact sums over one tree row: first components, second components, n/m."""

    __slots__ = ("k", "m_sum", "n_sum", "ratio_sum")


def row_stats(k: int, row: Iterable[tuple[int, int]]) -> RowStats:
    """Sums over row k given as its (m, n) pairs, read once, by direct summation.

    One pass adds up the m and, in one dict, the n sharing a denominator m; the terms
    N_m / m are then summed as a balanced binary tree, merged like a binary
    counter (after the i-th term the stack holds one partial sum per set bit of
    i), as reduced integer pairs added as Fraction.__add__ does (Knuth, TAOCP 4.5.1).
    """
    from fractions import Fraction
    groups: dict[int, int] = {}
    m_sum = 0
    for m, n in row:
        groups[m] = groups.get(m, 0) + n
        m_sum += m
    stack: list[tuple[int, int]] = []
    for i, (db, nb) in enumerate(groups.items(), 1):
        g = gcd(nb, db)
        nb, db = nb // g, db // g
        while not i & 1:  # nb / db += the partial sum on top of the stack
            na, da = stack.pop()
            g = gcd(da, db)
            nb = na * (db // g) + nb * (da // g)
            g2 = gcd(nb, g)
            nb, db = nb // g2, da // g * (db // g2)
            i >>= 1
        stack.append((nb, db))
    ratio_sum = sum((Fraction(*term) for term in reversed(stack)), Fraction(0))
    return RowStats(k, m_sum, sum(groups.values()), ratio_sum)


def row_stats_direct(
    f: EnumerablePoly, k: int, max_nodes: int = DEFAULT_NODE_BUDGET
) -> RowStats:
    """Sums over row k of the tree of f: the last of the kernel's pair rows 0..k."""
    check_tree_size(k, max_nodes)
    for row in kernel_for(f)._rows(k, True):
        pass
    return row_stats(k, row)


def row_stats_recursive(k: int) -> RowStats:
    """Row sums for the x^2 + 1 tree via the linear recursions (no tree walk).

    The ratio increment 3 * 2^(k-2) is fractional at k = 1; carried exactly as
    Fraction(3 * 2^k, 4), which reproduces the closed form at every k.
    """
    from fractions import Fraction
    at_least("row index", k, 0)
    m_prev, m_cur = 1, 1  # M_-1 and M_0, so that M_1 = 5 - 2 = 3
    n_prev, n_cur = -1, 0  # N_-1 and N_0, so that N_1 = 0 + 2 = 2
    r = Fraction(0)
    for j in range(1, k + 1):
        r += Fraction(3 * (1 << j), 4)
        m_prev, m_cur = m_cur, 5 * m_cur - 2 * m_prev
        n_prev, n_cur = n_cur, 5 * n_cur - 2 * n_prev
    return RowStats(k, m_cur, n_cur, r)


def ratio_closed_form(k: int) -> "Fraction":
    """(3/2)(2^k - 1), the exact ratio sum of row k of the x^2 + 1 tree."""
    from fractions import Fraction
    at_least("row index", k, 0)
    return Fraction(3, 2) * ((1 << k) - 1)


class PrimeRepresentation(Record):
    """p as an alternating product of |f(n)| values, largest n first.

    exponents[i] is the +/-1 power of |f(n_values[i])|; the largest n carries
    +1 and signs alternate downwards.  All n_values are strictly increasing
    and below p.
    """

    __slots__ = ("p", "f", "n_values", "exponents")

    def factors(self) -> list[tuple[int, int]]:
        """(|f(n)|, exponent) pairs aligned with n_values."""
        return [
            (abs(self.f.poly(n)), e) for n, e in zip(self.n_values, self.exponents)
        ]

    def product(self) -> "Fraction":
        from fractions import Fraction
        out = Fraction(1)
        for value, e in self.factors():
            out *= Fraction(value) ** e
        return out


def prime_representation(f: EnumerablePoly, p: int, n: int) -> PrimeRepresentation:
    """The alternating-product form of p attached to the pair (p, n).

    Requires p prime, 0 <= n < p and p | |f(n)|.  The n values are the distinct
    nonzero n that the passes of the reduction of (p, n) start at.  The product is
    not re-multiplied here; `verify prime-reps` checks it telescopes to p.
    """
    if not is_prime(p):
        raise BadPair(f"{p} is not prime")
    if not 0 <= n < p:
        raise BadPair(f"need 0 <= n < p, got n = {n}, p = {p}")
    make_pair(p, n, f)  # p | |f(n)|, or BadPair
    ns = sorted({n for _, n, _ in _passes(f, p, n, f.poly(n) // p)} - {0})
    signs = tuple((-1) ** (len(ns) - 1 - i) for i in range(len(ns)))
    return PrimeRepresentation(p=p, f=f, n_values=tuple(ns), exponents=signs)


def roots_mod_p(f: EnumerablePoly, p: int) -> list[int]:
    """All n in [0, p) with f(n) == 0 mod p, via a modular square root.

    f is monic quadratic, so for odd p completing the square reduces the congruence to
    one Tonelli-Shanks call on the discriminant, which checks that p is prime; 2 is scanned.
    """
    c0, beta, _ = f.poly.coeffs
    if p == 2:
        return [n for n in (0, 1) if (n * n + beta * n + c0) % 2 == 0]
    r = sqrt_mod(beta * beta - 4 * c0, p)
    if r is None:
        return []
    inv2 = pow(2, -1, p)
    return sorted({(-beta + r) * inv2 % p, (-beta - r) * inv2 % p})


def primes_with_divisor(f: EnumerablePoly, p_max: int) -> list[int]:
    """Primes p <= p_max dividing some |f(n)|, i.e. with a root mod p."""
    return [p for p in primes_up_to(p_max) if roots_mod_p(f, p)]
