"""Second-component sequences of the divisor-pair trees and their recursions.

Reading the second components of a tree breadth first gives an integer
sequence s satisfying, with a per-polynomial additive constant,

    s(4k)     = 2 s(2k)   - s(k)
    s(4k + 1) = 2 s(2k)   + s(2k + 1) + const
    s(4k + 2) = 2 s(2k+1) + s(2k)     + const
    s(4k + 3) = 2 s(2k+1) - s(k)

so s is 2-regular.  The constant equals the linear coefficient of the
polynomial (0, 1, 2 or 3 on the four trees).  The recursion holds for k >= 2^d,
d the first n with 0 < f(n) < f(n + 1), and its seeds are read off the tree:
the n-values of rows 0..d + 1.  That is s(1)=0, s(2)=1, s(3)=1 where d = 0, and
for x^2 + 2x - 1 (f(0) = -1, d = 1) four more, s(4)=2, s(5)=3, s(6)=3, s(7)=2.
So a kernel depends on its polynomial alone: kernel_for reads it off f on each
call, and kernels compare, hash and pickle by value like every other record.

The whole pair tree is recoverable from s alone: the k-th breadth-first pair
is (s(2k) - s(k), s(k)), which pair_at builds unchecked and verify recursions
and verify bijectivity check.  For x^2 + 1, node k of the 3-vector tree is
v = (s(k), s(2k), s(2k+1)), read off two kernel rows; the pair is (b - a, a) for
v = (a, b, c), and v has children L*v and R*v (L_MATRIX, R_MATRIX), as tests check.

All four branches are written once, in net_expand.  Pointwise values come
from a digit walk: start at the seed triple (s(j), s(2j), s(2j+1)) of the
leading binary digits j of k and, for each further digit, move to the left
or right child triple by one net_expand step.  s(k) thus costs O(bits of k)
time and O(1) memory at any index size, with no shared mutable state.

Fibers: the set of tree indices whose second component equals n has exactly
tau(|f(n)|) elements, and |f(n)| is prime exactly when that set is the boundary
pair {2^n, 2^(n+1) - 1}.  Fibers come from the divisors of |f(n)|, not a tree
scan: per couple m * q = |f(n)| only the min side (m, n), m <= q, is reduced, and
_index alone folds its passes to index k of L = bit_length(k) - 1 letters.  Its
reduction checks m <= n < q, so (q, n) reduces by exponent 0, steps by c_bar to
(m, n) and repeats the same steps: its word is k's with S and T swapped, so its
index is k's mirror index (3 << L) - 1 - k: odd, where words led by S have
even indices.  Only the root (1, 0) has n = 0, since a child adds m >= 1
(s_bar) or the cofactor |f(n)| / m >= 1 (t_bar) to n: the fiber of 0 is {1}.
"""

from itertools import chain, islice, pairwise, repeat
from operator import add, sub
from typing import Iterable, Iterator

from . import maps
from ._record import Record, at_least
from .arith import divisors
from .maps import DEFAULT_NODE_BUDGET, _index, _passes, check_tree_size
from .monoid import mirror_index
from .pairs import PHI0, DivisorPair, EnumerablePoly, _moved

__all__ = [
    "SSeqKernel",
    "kernel_for",
    "L_MATRIX",
    "R_MATRIX",
    "vector_tree_rows",
    "net_expand",
]

Vec3 = tuple[int, int, int]
Mat3 = tuple[Vec3, Vec3, Vec3]

# Rows deeper than this are streamed in blocks of this depth (SSeqKernel._rows,
# which reads it at call time).
_BLOCK_DEPTH = 14

L_MATRIX: Mat3 = ((0, 1, 0), (-1, 2, 0), (0, 2, 1))
R_MATRIX: Mat3 = ((0, 0, 1), (0, 1, 2), (-1, 0, 2))


class SSeqKernel(Record):
    """Recursion kernel of one tree's second-component sequence.

    The recursion holds for k >= start, with the constant poly.beta; initial is
    the tuple of seeds in heap order, slot k holding s(k) for k < 4 * start (slot
    0 is unused).
    """

    __slots__ = ("poly", "start", "initial")

    def _triple(self, k: int) -> Vec3:
        """(s(k), s(2k), s(2k+1)) by the digit walk from k's seed node."""
        at_least("index", k, 1)
        digits = bin(k)[2:]
        head = min(len(digits), self.start.bit_length())
        j = int(digits[:head], 2)
        seed, const = self.initial, self.poly.beta
        a, b, c = seed[j], seed[2 * j], seed[2 * j + 1]
        for digit in digits[head:]:
            w, x, y, z = net_expand(a, b, c, const)
            a, b, c = (b, w, x) if digit == "0" else (c, y, z)
        return a, b, c

    def s_value(self, k: int) -> int:
        """s(k) by the digit walk; O(bits of k) time, O(1) memory."""
        return self._triple(k)[0]

    def _fill(self, stop: int, vals: list[int]) -> list[int]:
        """vals, s in heap order, extended in place by net_expand from its first node not yet
        expanded, len(vals) // 4, to slot stop or up to 3 past it, and returned.  From the
        seeds [*initial], slot k holds s(k); from a top [0, *_triple(j)], j >= start, level d
        holds s(j * 2**d), s(j * 2**d + 1), ...."""
        first = len(vals) // 4
        const, kids = self.poly.beta, islice(vals, 2 * first, None)
        # vals grows as it is read: slots k, 2k and 2k + 1 expand to slots 4k .. 4k + 3
        for _, a, b, c in zip(range(first, stop // 4 + 1), islice(vals, first, None), kids, kids):
            vals += net_expand(a, b, c, const)
        return vals

    def s_prefix(self, count: int) -> list[int]:
        """[s(1), ..., s(count)] by a bottom-up fill; matches s_value pointwise."""
        at_least("count", count, 1)
        return self._fill(count, [*self.initial])[1 : count + 1]

    def _rows(self, depth: int, pairs: bool = False) -> Iterator[Iterable]:
        """Rows 0..depth of s as iterables used once, row r holding s(2**r), ...,
        s(2**(r + 1) - 1); with pairs, the tree pairs (s(2k) - s(k), s(k)), which text
        trees, JSON sequences, stats and verify rowsums read.  Past row d, where start = 2**d,
        a pair row takes its m from s rows r - 1 and r: net_expand's first and third branches
        less s(2k) give m(2j) = s(2j) - s(j) and m(2j + 1) = s(2j) + s(2j + 1) + beta for
        j >= start; rows 0..d read s(2k) off the seeds.  With c = _BLOCK_DEPTH, rows to
        max(c, d) extend one list of s from the seeds, row by row; it is cleared before the
        first deeper row.  A deeper row r is the level r - t below each node j of row
        t = max(r - c, d), filled from the top [0, *_triple(j)], so j >= start; while d <= c,
        about 2**(c + 1) values are live at any depth.  depth is not checked."""
        c, d, beta = _BLOCK_DEPTH, self.start.bit_length() - 1, self.poly.beta
        head = [*self.initial]

        def level(vals, lo, r):  # slots lo .. 2 * lo - 1, row r of s or of the pairs
            ns = vals[lo : 2 * lo]
            if not pairs:
                return ns
            if r <= d:
                return zip(map(sub, vals[2 * lo : 4 * lo : 2], ns), ns)
            ev, od = ns[::2], ns[1::2]  # m(2j), m(2j + 1) in turn, made as they are read
            ms = zip(map(sub, ev, vals[lo // 2 : lo]), map(add, map(add, ev, od), repeat(beta)))
            return zip(chain.from_iterable(ms), ns)

        def row(r):  # level slices the head at once, and t and lo are r's: a held row reads alike
            if r <= max(c, d):
                return level(self._fill((2 << r) - 1, head), 1 << r, r)
            head.clear()
            t = max(r - c, d)
            lo = 1 << (r - t)
            tops = ([0, *self._triple(j)] for j in range(1 << t, 2 << t))
            return chain.from_iterable(level(self._fill(2 * lo - 1, top), lo, r) for top in tops)

        return map(row, range(depth + 1))

    def pair_at(self, k: int) -> DivisorPair:
        """The k-th tree pair, built unchecked; verify recursions and bijectivity check it."""
        n, s2k, _ = self._triple(k)
        return _moved(s2k - n, n, self.poly.poly)

    def fiber(self, n: int) -> set[int]:
        """Tree indices whose second component is n; size tau(|f(n)|).

        One evaluation of f, one reduction per couple m * q = |f(n)| (module docstring).
        """
        at_least("n", n, 0)
        if n == 0:
            return {1}  # the root (1, 0) alone (module docstring)
        f, value = self.poly, self.poly.poly(n)
        divs = divisors(abs(value))
        out = set()
        for m in divs[: (len(divs) + 1) // 2]:  # the min sides, m * m <= |f(n)|
            k = _index(_passes(f, m, n, value // m))
            out |= {k, mirror_index(k)}
        return out

    def is_f_prime_via_fiber(self, n: int, fiber: set[int] | None = None) -> bool:
        """True iff the fiber of n (computed unless given) is the two boundary indices.

        Equivalent to |f(n)| being prime; n >= 1 (the root value 1 at n = 0 is a unit).
        """
        at_least("n", n, 1)
        if fiber is None:
            fiber = self.fiber(n)
        return fiber == {1 << n, (1 << (n + 1)) - 1}


def kernel_for(f: EnumerablePoly) -> SSeqKernel:
    """The kernel of f's sequence, read off f and its tree (module docstring)."""
    deep = DEFAULT_NODE_BUDGET.bit_length()  # a d this deep has seed rows past the budget
    d = next((n for n in range(deep) if 0 < f.poly(n) < f.poly(n + 1)), deep)
    rows = maps.int_tree_rows(f, d + 1, DEFAULT_NODE_BUDGET, f"{f.poly}: seed row")
    seeds = (n for row in rows for _, n in row)
    return SSeqKernel(f, 1 << d, (0, *seeds))


def vector_tree_rows(
    depth: int, max_nodes: int = DEFAULT_NODE_BUDGET
) -> Iterator[list[Vec3]]:
    """Rows 0..depth of the 3-vector tree for x^2 + 1, breadth first.

    The node at index k is (s(k), s(2k), s(2k+1)), read off rows r and r + 1 of
    x^2 + 1's kernel; (a, b, c) -> (b - a, a) recovers the pair tree.  The
    children of v are L*v and R*v, a property the tests check.
    """
    check_tree_size(depth, max_nodes)
    rows = pairwise(map(list, kernel_for(PHI0)._rows(depth + 1)))
    return ([*zip(a, b[::2], b[1::2])] for a, b in rows)


def net_expand(a: int, b: int, c: int, const: int = 0) -> tuple[int, int, int, int]:
    """Grandchild second components under a node with value a and children b, c."""
    return (2 * b - a, 2 * b + c + const, 2 * c + b + const, 2 * c - a)
