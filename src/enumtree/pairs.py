"""Integer polynomials, divisor pairs, and the pair moves that grow their trees.

For a polynomial f the divisor-pair set consists of all (m, n) with n >= 0
and m >= 1 dividing |f(n)|.  Three moves act on it:

    s_bar(m, n)  = (m, n + m)                 first component preserved
    c_bar(m, n)  = (|f(n)| / m, n)            swap m with its cofactor
    t_bar        = c_bar . s_bar . c_bar

Exactly four quadratics (up to sign) admit a bijective enumeration of their
divisor pairs by the free S/T matrix monoid under these moves:

    x^2 + 1,   x^2 + x + 1,   x^2 + 2x - 1,   x^2 + 3x + 1

exposed below as PHI0, PHI1, PSI2 and PHI3.  An EnumerablePoly is a name and
its polynomial; its linear coefficient beta is read off the polynomial.

Divisibility is always tested against |f(n)|, so a polynomial and its
negation define the same pair set and the same moves.

For a monic quadratic f = x^2 + b*x + c, f(n + h) = f(n) + h*(2n + b + h): the
signed cofactor q = f(n) / m of a pair (m, n) becomes f(n + k*m) / m =
q + k*(2n + b + k*m), which integer moves use in place of evaluating f.
"""

from math import isqrt
from typing import Union

from ._record import Record

__all__ = [
    "Poly",
    "poly",
    "poly_eval",
    "PolyLike",
    "as_poly",
    "EnumerablePoly",
    "BadPair",
    "PHI0",
    "PHI1",
    "PSI2",
    "PHI3",
    "ENUMERABLE_POLYS",
    "POLY_BY_NAME",
    "DivisorPair",
    "make_pair",
    "pair_in_df",
    "s_bar",
    "c_bar",
    "t_bar",
    "s_bar_inv",
]


class Poly(Record):
    """Integer polynomial by coefficient tuple, constant term first.

    Canonical form: no trailing zero coefficients (the zero polynomial is the
    empty tuple).  Use poly(...) to build one from raw coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if coeffs and coeffs[-1] == 0:
            raise ValueError("trailing zero coefficient; use poly() to normalize")
        if not all(isinstance(c, int) for c in coeffs):
            raise ValueError(f"coefficients must be integers, got {coeffs}")
        super().__init__(coeffs)

    def __call__(self, n: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * n + c
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                x = "x" if i == 1 else f"x^{i}"
                body = x if mag == 1 else f"{mag}{x}"
            terms.append(sign + body)
        return "".join(terms)


def poly(*coeffs: int) -> Poly:
    """Build a Poly from coefficients, constant term first, trimming zeros."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return Poly(tuple(cs))


class EnumerablePoly(Record):
    """A named monic quadratic without a root n >= 0, such as the four trees below."""

    __slots__ = ("name", "poly")

    def __init__(self, name: str, poly: Poly) -> None:
        if poly.degree != 2 or poly.leading != 1:
            raise ValueError(f"{poly} is not a monic quadratic")
        c, b = poly.coeffs[:2]
        r = (isqrt(max(b * b - 4 * c, 0)) - b) // 2  # the larger root, if an integer
        if r >= 0 and poly(r) == 0:
            raise ValueError(f"{poly} vanishes at n = {r}, where c_bar is undefined")
        super().__init__(name, poly)

    @property
    def beta(self) -> int:
        """The linear coefficient; also the additive constant in the tree's
        second-component recursions."""
        return self.poly.coeffs[1]

    def __str__(self) -> str:
        return self.name


PHI0 = EnumerablePoly("phi0", poly(1, 0, 1))
PHI1 = EnumerablePoly("phi1", poly(1, 1, 1))
PSI2 = EnumerablePoly("psi2", poly(-1, 2, 1))
PHI3 = EnumerablePoly("phi3", poly(1, 3, 1))

ENUMERABLE_POLYS = (PHI0, PHI1, PSI2, PHI3)
POLY_BY_NAME = {f.name: f for f in ENUMERABLE_POLYS}

PolyLike = Union[Poly, EnumerablePoly]


def as_poly(f: PolyLike) -> Poly:
    return f.poly if isinstance(f, EnumerablePoly) else f


def poly_eval(f: PolyLike, n: int) -> int:
    """Exact value f(n)."""
    return as_poly(f)(n)


def pair_in_df(f: PolyLike, m: int, n: int) -> bool:
    """True iff m >= 1, n >= 0 and m divides |f(n)|."""
    return m >= 1 and n >= 0 and abs(as_poly(f)(n)) % m == 0


class BadPair(ValueError):
    """(m, n) is not a valid divisor pair for the operation asked of it."""


class DivisorPair(Record):
    """An integer pair (m, n), n >= 0, with m >= 1 dividing |f(n)|, bound to its polynomial f.

    Carrying f on the pair keeps the complement move self-contained and stops
    pairs from different trees being mixed by accident.
    """

    __slots__ = ("m", "n", "poly")

    def __init__(self, m: int, n: int, poly: Poly) -> None:
        if not (isinstance(m, int) and m >= 1):
            raise BadPair(f"first component must be an integer >= 1, got {m}")
        if not (isinstance(n, int) and n >= 0):
            raise BadPair(f"second component must be an integer >= 0, got {n}")
        if abs(poly(n)) % m != 0:
            raise BadPair(f"{m} does not divide |f({n})| for f = {poly}")
        super().__init__(m, n, poly)

    def components(self) -> tuple[int, int]:
        return (self.m, self.n)

    def __str__(self) -> str:
        return f"({self.m}, {self.n})"


def make_pair(m: int, n: int, f: PolyLike) -> DivisorPair:
    return DivisorPair(m, n, as_poly(f))


# The moves map pairs of f to pairs of f, so their results are built without
# the membership check of DivisorPair.__init__: slots are filled directly.
_new = object.__new__
_set_m, _set_n, _set_poly = (DivisorPair.__dict__[k].__set__ for k in ("m", "n", "poly"))


def _moved(m: int, n: int, f: Poly) -> DivisorPair:
    p = _new(DivisorPair)
    _set_m(p, m)
    _set_n(p, n)
    _set_poly(p, f)
    return p


def s_bar(p: DivisorPair) -> DivisorPair:
    """Left-child move (m, n) -> (m, n + m)."""
    return _moved(p.m, p.n + p.m, p.poly)


def c_bar(p: DivisorPair) -> DivisorPair:
    """Complement move (m, n) -> (|f(n)| / m, n); an involution."""
    value = abs(p.poly(p.n))
    if value == 0:  # the complement (0, n) is no pair
        raise ValueError(f"f vanishes at {p.n}, so {p} has no complement")
    return _moved(value // p.m, p.n, p.poly)


def _shifted_cofactor(q: int, n: int, b: int, k: int, m: int) -> int:
    """f(n + k*m) / m from the signed cofactor q = f(n) / m, for the monic
    quadratic f with linear coefficient b (the shift in the module docstring)."""
    return q + k * (2 * n + b + k * m)


def t_bar(p: DivisorPair) -> DivisorPair:
    """Right-child move; the complement-conjugate of s_bar."""
    return c_bar(s_bar(c_bar(p)))


def s_bar_inv(p: DivisorPair) -> DivisorPair:
    """Inverse of s_bar; requires n >= m to stay in the nonnegative quadrant."""
    if p.n < p.m:
        raise ValueError(f"cannot invert the left-child move at {p}: n < m")
    return _moved(p.m, p.n - p.m, p.poly)
