"""Integer arithmetic support: primality, factorization, divisors, modular square roots.

Everything here is exact and works on arbitrary-precision integers.  Primality
is Miller-Rabin to the prime bases 2..41, a proof below psi_13 =
3,317,044,064,679,887,385,961,981; above it a True means a strong probable
prime, which factorize keeps as a prime factor.  Factorization is trial
division by the primes below 1000, which proves a cofactor below p * p, for
the next trial prime p, to be 1 or prime; larger ones go through Miller-Rabin
and Brent's variant of Pollard's rho with a fixed, deterministic parameter
schedule, so repeated runs give identical results.
"""

from math import gcd, isqrt

__all__ = [
    "is_prime",
    "factorize",
    "divisors",
    "tau",
    "primes_up_to",
    "sqrt_mod",
    "FactorLimitExceeded",
]

# Exact below psi_13 (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class FactorLimitExceeded(RuntimeError):
    """Raised when the rho schedule gives up instead of silently mis-factoring."""


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by a plain sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(limit + 1) if sieve[i]]


_SMALL_PRIMES = tuple(primes_up_to(1000))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (deterministic schedule)."""
    for c in range(1, 200):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = gcd(abs(x - y), n)
        if 1 < g < n:
            return g
    raise FactorLimitExceeded(f"rho schedule exhausted on {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:  # no prime factor below p is left, so n is 1 or prime
            return {**out, n: 1} if n > 1 else out
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        v = stack.pop()
        if is_prime(v):
            out[v] = out.get(v, 0) + 1
            continue
        r = isqrt(v)
        if r * r == v:
            stack += [r, r]
            continue
        g = _brent_rho(v)
        stack += [g, v // g]
    return out


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def tau(n: int) -> int:
    """Number of positive divisors of n >= 1."""
    out = 1
    for e in factorize(n).values():
        out *= e + 1
    return out


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo prime p, or None if a is a non-residue.

    Tonelli-Shanks; the p % 4 == 3 shortcut avoids the loop where possible.
    """
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
