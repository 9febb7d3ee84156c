"""Independent brute-force oracles used by the tests.

Deliberately primitive: trial division, direct scans, breadth-first word
enumeration.  Nothing here may call into enumtree, so the library is always
checked against an unrelated computation path.
"""

from fractions import Fraction


def trial_tau(v: int) -> int:
    """Divisor count by trial division."""
    assert v >= 1
    count = 0
    i = 1
    while i * i <= v:
        if v % i == 0:
            count += 1 if i * i == v else 2
        i += 1
    return count


def trial_divisors(v: int) -> list[int]:
    """Sorted divisors by trial division."""
    assert v >= 1
    small, large = [], []
    i = 1
    while i * i <= v:
        if v % i == 0:
            small.append(i)
            if i * i != v:
                large.append(v // i)
        i += 1
    return small + large[::-1]


def trial_is_prime(v: int) -> bool:
    if v < 2:
        return False
    i = 2
    while i * i <= v:
        if v % i == 0:
            return False
        i += 1
    return True


def trial_factorize(v: int) -> dict[int, int]:
    assert v >= 1
    out: dict[int, int] = {}
    d = 2
    while d * d <= v:
        while v % d == 0:
            out[d] = out.get(d, 0) + 1
            v //= d
        d += 1
    if v > 1:
        out[v] = out.get(v, 0) + 1
    return out


def row_ratio_sum(row: list[tuple[int, int]]) -> Fraction:
    """Sum of n / m over the (m, n) pairs of a row, term by term."""
    return sum((Fraction(n, m) for m, n in row), Fraction(0))


def bfs_words(depth: int) -> list[str]:
    """All generator words in breadth-first tree order, root first.

    Children of a word w are "S" + w (left) and "T" + w (right), matching
    left-multiplication by the generators.
    """
    words = [""]
    row = [""]
    for _ in range(depth):
        row = [letter + w for w in row for letter in ("S", "T")]
        words.extend(row)
    return words


def replay_n_values(c0: int, c1: int, p: int, n: int) -> list[int]:
    """n-values of the alternating prime product of the pair (p, n) of
    f = x^2 + c1*x + c0: reduce (p, n) to (1, 0) by division, recording each
    floor(n/m), then replay those steps forward from the root and record n
    after each one."""
    def f(x):
        return abs(x * x + c1 * x + c0)

    m, cur, steps = p, n, []
    while (m, cur) != (1, 0):
        a = cur // m
        steps.append(a)
        cur -= a * m
        m = f(cur) // m
    m, ns = 1, []
    for a in reversed(steps[1:]):
        cur += a * m
        m, rest = divmod(f(cur), m)
        assert rest == 0
        ns.append(cur)
    assert (m, cur) == (p, n)
    return ns


def quadratic_roots_scan(c0: int, c1: int, p: int) -> list[int]:
    """All n in [0, p) with n^2 + c1*n + c0 == 0 mod p, by direct scan."""
    return [n for n in range(p) if (n * n + c1 * n + c0) % p == 0]


def row_sums_by_representation(
    abc: tuple[int, int, int], nodes: int, beta: int, rows: int
) -> list[tuple[int, int]]:
    """Row sums (M_r, N_r) of m and n over `rows` tree rows, from one row's triple sums.

    abc is (A, B, C), the sums of (s(k), s(2k), s(2k+1)) over the `nodes`
    indices k of the first row; node k is the pair (s(2k) - s(k), s(k)), so
    M_r = B - A and N_r = A.  Summing the four branches s(4k) = 2s(2k) - s(k),
    s(4k+1) = 2s(2k) + s(2k+1) + beta, s(4k+2) = 2s(2k+1) + s(2k) + beta and
    s(4k+3) = 2s(2k+1) - s(k) over a row gives the next row's (A, B, C).
    """
    a, b, c = abc
    out = []
    for _ in range(rows):
        out.append((b - a, a))
        a, b, c = b + c, 3 * b + 2 * c - a + beta * nodes, 2 * b + 3 * c - a + beta * nodes
        nodes *= 2
    return out
