"""Independent arithmetic for the benchmark's input generation and output checks.

Nothing here imports enumtree: every identity is written out again from the
paper so that a defect in the package cannot hide behind the checker.

Polynomials are named as on the CLI: phi0 = x^2 + 1, phi1 = x^2 + x + 1,
psi2 = x^2 + 2x - 1, phi3 = x^2 + 3x + 1.  A quadratic is a coefficient
tuple, constant term first.
"""

from math import isqrt

POLYS = ("phi0", "phi1", "psi2", "phi3")
COEFFS = {
    "phi0": (1, 0, 1),
    "phi1": (1, 1, 1),
    "psi2": (-1, 2, 1),
    "phi3": (1, 3, 1),
}
SAFE_INT = (1 << 53) - 1

# Two 61-bit-ish primes for checking exact rational sums modulo p.
RATIO_PRIMES = ((1 << 61) - 1, (1 << 89) - 1)

# Miller-Rabin with these bases is exact below 3.3e24 (> 2^81).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_EXACT_LIMIT = 3_317_044_064_679_887_385_961_981


def beta(name: str) -> int:
    return COEFFS[name][1]


def fval(coeffs, n: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * n + c
    return out


def absf(name: str, n: int) -> int:
    c0, c1, c2 = COEFFS[name]
    return abs(c2 * n * n + c1 * n + c0)


# ----------------------------------------------------------------------
# the second-component sequence: the paper's four-branch recursion
# ----------------------------------------------------------------------


def s_prefix(name: str, count: int) -> list[int]:
    """[0, s(1), ..., s(count)]: index 0 is padding so that s[k] = s(k).

    s(4k) = 2s(2k) - s(k), s(4k+1) = 2s(2k) + s(2k+1) + c,
    s(4k+2) = 2s(2k+1) + s(2k) + c, s(4k+3) = 2s(2k+1) - s(k), with c the
    linear coefficient; x^2 + 2x - 1 starts the recursion at k = 2.
    """
    c = beta(name)
    seeds = [0, 0, 1, 1] if name != "psi2" else [0, 0, 1, 1, 2, 3, 3, 2]
    s = seeds[: count + 1] + [0] * max(0, count + 1 - len(seeds))
    for j in range(len(seeds), count + 1):
        k, r = divmod(j, 4)
        if r == 0:
            s[j] = 2 * s[2 * k] - s[k]
        elif r == 1:
            s[j] = 2 * s[2 * k] + s[2 * k + 1] + c
        elif r == 2:
            s[j] = 2 * s[2 * k + 1] + s[2 * k] + c
        else:
            s[j] = 2 * s[2 * k + 1] - s[k]
    return s


# ----------------------------------------------------------------------
# words, matrices, heap indices, and the four closed-form maps
# ----------------------------------------------------------------------

_LSB_LETTERS = str.maketrans("01", "ST")


def index_to_word(k: int) -> str:
    """Word of heap index k: binary digits after the leading 1, last digit first."""
    return bin(k)[:2:-1].translate(_LSB_LETTERS)


def word_to_index(word: str) -> int:
    if not word:
        return 1
    return int("1" + word[::-1].replace("S", "0").replace("T", "1"), 2)


def word_to_matrix(word: str) -> tuple[int, int, int, int]:
    """Row-major (a, b, c, d) of the product; the rightmost letter acts first.

    Left-multiplying by S = [[1,0],[1,1]] adds the top row to the bottom row;
    by T = [[1,1],[0,1]] adds the bottom row to the top row.
    """
    a, b, c, d = 1, 0, 0, 1
    for letter in reversed(word):
        if letter == "S":
            c, d = c + a, d + b
        else:
            a, b = a + c, b + d
    return a, b, c, d


def matrix_to_pair(name: str, x: tuple[int, int, int, int]) -> tuple[int, int]:
    """The closed-form pair of matrix x in the tree of the named polynomial."""
    a, b, c, d = x
    bt = beta(name)
    if name == "psi2":
        ac, bd = a * c, b * d
        return (
            max(a, b) ** 2 + bt * a * b - min(a, b) ** 2,
            max(ac, bd) + bt * b * c - min(ac, bd),
        )
    return a * a + bt * a * b + b * b, a * c + bt * b * c + b * d


# ----------------------------------------------------------------------
# primes and divisors, by methods unrelated to the package's rho
# ----------------------------------------------------------------------


def tau_trial(v: int) -> int:
    count = 0
    for i in range(1, isqrt(v) + 1):
        if v % i == 0:
            count += 1 if i * i == v else 2
    return count


def divisors_trial(v: int) -> list[int]:
    small = [i for i in range(1, isqrt(v) + 1) if v % i == 0]
    return sorted(set(small + [v // i for i in small]))


def is_prime_trial(v: int) -> bool:
    if v < 2:
        return False
    if v % 2 == 0:
        return v == 2
    return all(v % i for i in range(3, isqrt(v) + 1, 2))


def is_prime_mr(n: int) -> bool:
    """Miller-Rabin; exact below MR_EXACT_LIMIT, which is all the benchmark draws."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def roots_mod_p(name: str, p: int) -> list[int]:
    """Roots of the polynomial modulo prime p, by brute force for tiny p and
    Cipolla's square root otherwise."""
    c0, c1, _ = COEFFS[name]
    if p < 64:
        return [n for n in range(p) if (n * n + c1 * n + c0) % p == 0]
    disc = (c1 * c1 - 4 * c0) % p
    r = _sqrt_mod_cipolla(disc, p)
    if r is None:
        return []
    inv2 = (p + 1) // 2
    return sorted({(-c1 + r) * inv2 % p, (-c1 - r) * inv2 % p})


def _sqrt_mod_cipolla(a: int, p: int) -> int | None:
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    t = 1
    while pow((t * t - a) % p, (p - 1) // 2, p) != p - 1:
        t += 1
    w = (t * t - a) % p
    # (t + sqrt(w))^((p+1)/2) in F_p[sqrt(w)]
    x, y = 1, 0
    bx, by = t, 1
    e = (p + 1) // 2
    while e:
        if e & 1:
            x, y = (x * bx + y * by * w) % p, (x * by + y * bx) % p
        bx, by = (bx * bx + by * by * w) % p, (2 * bx * by) % p
        e >>= 1
    return x
