"""The four bijective matrix-to-pair maps, their inverses, and tree generation.

Each of the four quadratics comes with a closed-form map from a matrix
[[a, b], [c, d]] to a divisor pair:

    x^2 + beta*x + 1  ->  (a^2 + beta*a*b + b^2,  a*c + beta*b*c + b*d)
    x^2 + 2x - 1      ->  (max(a,b)^2 + 2ab - min(a,b)^2,
                           max(ac,bd) + 2bc - min(ac,bd))

The same pair is reached by replaying the matrix's generator word from the
root pair (1, 0) with the s_bar/t_bar moves; both routes are exposed so they
can be checked against each other.

The inverse direction peels a pair back to (1, 0): repeat

    (m, n)  ->  c_bar( s_bar^(-floor(n/m)) (m, n) )

recording the exponents.  With c_bar s_bar c_bar merged into t_bar they are the word's
S and T blocks, read into the tree index as they are peeled; the index gives the word.
The loop additionally checks, at every visited pair, the reachability
inequality min(m, |f(n)|/m) <= n < max(m, |f(n)|/m), written once in
classify (_violation); on a violation it aborts with a diagnostic instead of
cycling.
"""

from typing import Iterator

from ._record import Record, at_least
from .classify import LEFT, _violation
from .monoid import Mat2, index_to_word, matrix_to_word
from .pairs import (
    ENUMERABLE_POLYS,
    BadPair,
    DivisorPair,
    EnumerablePoly,
    _moved,
    _shifted_cofactor,
    make_pair,
    poly,
    s_bar,
    t_bar,
)

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "NodeBudgetExceeded",
    "phi_beta",
    "psi_beta",
    "f_hat",
    "f_hat_via_action",
    "relatives",
    "InverseTrace",
    "f_hat_inverse",
    "int_tree_rows",
    "tree_rows",
]

DEFAULT_NODE_BUDGET = 1 << 21


class NodeBudgetExceeded(RuntimeError):
    """Tree generation was asked for more nodes than the configured budget."""


def check_tree_size(depth: int, max_nodes: int, name: str = "depth") -> None:
    """Refuse a depth or max_nodes not an integer >= 0, or rows 0..depth past max_nodes, by name."""
    at_least(name, depth, 0)
    at_least("max_nodes", max_nodes, 0)
    if depth + 1 >= (max_nodes + 1).bit_length():  # 2^(depth+1) - 1 > max_nodes, in O(1)
        total = (1 << (depth + 1)) - 1 if depth < 64 else f"2^{depth + 1} - 1"
        raise NodeBudgetExceeded(f"{name} {depth} needs {total} nodes, budget is {max_nodes}")


def phi_beta(beta: int, x: Mat2) -> DivisorPair:
    """Closed-form pair of x under the map attached to x^2 + beta*x + 1."""
    m = x.a * x.a + beta * x.a * x.b + x.b * x.b
    n = x.a * x.c + beta * x.b * x.c + x.b * x.d
    return DivisorPair(m, n, poly(1, beta, 1))


def psi_beta(beta: int, x: Mat2) -> DivisorPair:
    """Closed-form pair of x under the map attached to x^2 + beta*x - 1.

    The max/min choices on both components agree because a >= b iff c >= d
    for every element except the identity; a tie ac == bd forces the identity.
    """
    a, b, c, d = x.a, x.b, x.c, x.d
    ac, bd = a * c, b * d
    m = max(a, b) ** 2 + beta * a * b - min(a, b) ** 2
    n = max(ac, bd) + beta * b * c - min(ac, bd)
    return DivisorPair(m, n, poly(-1, beta, 1))


def f_hat(f: EnumerablePoly, x: Mat2) -> DivisorPair:
    """The pair of x in the tree of f by the closed form, for x^2 + beta*x +- 1 with f(1) > 0."""
    c = f.poly(0)
    if abs(c) != 1 or f.poly(1) <= 0:
        raise ValueError(f"no closed form for the tree of {f.poly}")
    return (psi_beta if c < 0 else phi_beta)(f.beta, x)


def f_hat_via_action(f: EnumerablePoly, x: Mat2) -> DivisorPair:
    """The pair of x computed by replaying its word from the root pair.

    Must agree with f_hat everywhere; kept as an independent route.
    """
    p = make_pair(1, 0, f)
    for letter in reversed(matrix_to_word(x)):
        p = s_bar(p) if letter == "S" else t_bar(p)
    return p


def relatives(x: Mat2) -> dict[EnumerablePoly, DivisorPair]:
    """The pairs of the same matrix in all four trees."""
    return {f: f_hat(f, x) for f in ENUMERABLE_POLYS}


class InverseTrace(Record):
    """Full record of one inverse run.

    exponents are the recorded floor(n/m) steps in reduction order; pairs is
    every distinct pair visited, from the input down to (1, 0); word is the
    generator word of the preimage matrix and index its tree position.
    """

    __slots__ = ("exponents", "pairs", "word", "index")


def _peel(
    f: EnumerablePoly, m: int, n: int, q: int
) -> tuple[list[int], list[tuple[int, int]], int]:
    """Peel (m, n), a pair of the tree of f, down to (1, 0), given the signed cofactor
    q = f(n) / m: the exponents, the chain of distinct pairs visited from (m, n) to (1, 0),
    and the tree index k.  Exponent i is a block of S (i even) or T (i odd) letters, a bit
    0 or 1 each in k, first block lowest; the root closes k with a 1 above them."""
    b = f.beta
    exponents: list[int] = []
    chain = [(m, n)]
    k = pos = 0  # the index bits read so far, and their count
    # n never grows, and a pass with a = 0 sets m = |q| <= n (the check), so the next lowers n
    while n or m != 1:
        cert = _violation(f.poly, m, n, abs(q))
        if cert is not None:
            side = "min" if cert.side == LEFT else "max"
            raise ArithmeticError(
                f"pair ({m}, {n}) of f = {f.poly} violates the reachability bound"
                f" ({side} side); it cannot be reduced to the root"
            )
        a = n // m
        if len(exponents) % 2:  # a T block: bits pos .. pos + a - 1 are set
            k |= ((1 << a) - 1) << pos
        exponents.append(a)
        pos += a
        if a:
            q = _shifted_cofactor(q, n, b, -a, m)
            n -= a * m
            chain.append((m, n))
        m, q = abs(q), (m if q > 0 else -m)  # c_bar: f(n) = m * q
        if (m, n) != chain[-1]:
            chain.append((m, n))
    return exponents, chain, k | 1 << pos


def f_hat_inverse(f: EnumerablePoly, p: DivisorPair) -> InverseTrace:
    """Invert the tree map at p (a pair of the tree of f): word, index, and
    the full reduction chain."""
    if p.poly != f.poly:
        raise BadPair(f"pair {p} belongs to {p.poly}, not to {f.poly}")
    exponents, chain, index = _peel(f, p.m, p.n, f.poly(p.n) // p.m)
    # The chain pairs are p moved by s_bar_inv and c_bar: no check needed.
    return InverseTrace(
        exponents=tuple(exponents),
        pairs=tuple(_moved(m, n, f.poly) for m, n in chain),
        word=index_to_word(index),
        index=index,
    )


def _int_rows(b: int, row: list[tuple[int, int]], cofs: list[int], depth: int):
    """row, then depth rows below it (s_bar then t_bar by the cofactor shift), each
    with the signed cofactors f(n) / m of its pairs."""
    yield row, cofs
    for _ in range(depth):
        children, child_cofs = [], []
        for (m, n), q in zip(row, cofs):
            # t_bar = c_bar . s_bar . c_bar: (c, n) of cofactor +-m, (c, n + c) of r, (|r|, n + c)
            c = abs(q)
            r = _shifted_cofactor(m if q > 0 else -m, n, b, 1, c)
            children += ((m, n + m), (abs(r), n + c))
            child_cofs += (_shifted_cofactor(q, n, b, 1, m), c if r > 0 else -c)
        row, cofs = children, child_cofs
        yield row, cofs


def int_tree_rows(
    f: EnumerablePoly, depth: int, max_nodes: int = DEFAULT_NODE_BUDGET, name: str = "depth"
) -> Iterator[list[tuple[int, int]]]:
    """Rows 0..depth of the divisor-pair tree of f as plain (m, n) tuples.

    Row k holds 2**k pairs, breadth first; children of each node are s_bar
    (left) then t_bar (right), by the cofactor shift: f is evaluated once, at
    the root, and nodes are not revalidated.  Rows are produced lazily but
    depth, named name in a refusal, and the node count are checked up front.
    """
    check_tree_size(depth, max_nodes, name)
    return (row for row, _ in _int_rows(f.beta, [(1, 0)], [f.poly(0)], depth))


def tree_rows(
    f: EnumerablePoly, depth: int, max_nodes: int = DEFAULT_NODE_BUDGET
) -> Iterator[list[DivisorPair]]:
    """Rows 0..depth of the divisor-pair tree of f, breadth first.

    Row k holds 2**k pairs; children of each node are s_bar (left) then t_bar
    (right).  The components are those of int_tree_rows; the checks are the
    same and also happen at the call.
    """
    check_tree_size(depth, max_nodes)

    def rows() -> Iterator[list[DivisorPair]]:
        row = [make_pair(1, 0, f)]
        yield row
        for _ in range(depth):
            row = [child for p in row for child in (s_bar(p), t_bar(p))]
            yield row

    return rows()
