"""Integer arithmetic support: primality, factorization, divisors, modular square roots.

Everything here is exact and works on arbitrary-precision integers.  Primality
is Miller-Rabin to the prime bases 2..41, a proof below psi_13 =
3,317,044,064,679,887,385,961,981: it stops after base t once n < psi_t (_PSI).
From psi_13 on it is Baillie-PSW, the 13 bases then a strong Lucas test, so a
True means a probable prime, which factorize keeps as a prime factor.
Factorization is trial division by the primes below 1000, which proves a
cofactor below p * p, for the next trial prime p, to be 1 or prime; larger ones
go through Miller-Rabin and Brent's variant of Pollard's rho with a fixed,
deterministic parameter schedule, so repeated runs give identical results.
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

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_t, the least strong pseudoprime to the first t bases: below it they are a proof
# (OEIS A014233; Jaeschke, Math. Comp. 61, 1993; Sorenson-Webster, Math. Comp. 86, 2017).
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
        341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
        318665857834031151167461, 3317044064679887385961981)


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
    for a, psi in zip(_MR_BASES, _PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
    return isqrt(n) ** 2 != n and _is_strong_lucas_prp(n)  # a square has no Selfridge D


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a / n) for odd n > 0."""
    a, t = a % n, 1
    while a:  # Euclid's descent: the next a is n % a < a
        z = (a & -a).bit_length() - 1  # (2 / n) = -1 iff n = 3, 5 mod 8
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            t = -t
        if a & 3 == 3 and n & 3 == 3:  # reciprocity
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas test of odd n > 41, not a square, with Selfridge's P = 1, Q = (1 - D) / 4."""
    D = 5
    while (j := _jacobi(D, n)) != -1:  # n is no square, so some D gives -1
        if j == 0:  # 1 < gcd(|D|, n) < n
            return False
        D = 2 - D if D < 0 else -D - 2
    Q, half, s = (1 - D) // 4, (n + 1) // 2, ((n + 1) & -(n + 1)).bit_length() - 1
    U, V, Qk = 0, 2, 1  # U_k, V_k, Q^k at k = 0
    for bit in bin((n + 1) >> s)[2:]:  # up to k = d, the odd part of n + 1
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":  # k + 1; half is the inverse of 2 mod n
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    for _ in range(s):  # strong: V_(d * 2^r) = 0 for some r < s, or U_d = 0
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return U == 0


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (deterministic schedule)."""
    for c in range(1, 200):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:  # no step cap: about sqrt(p) steps for n's least prime p
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
            while g == 1:  # replays the last batch, whose product shared a factor
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
    while stack:  # every pop is prime or splits in two proper factors
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
    """A square root of a mod p (a checked prime), or None for a non-residue; Tonelli-Shanks."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    a %= p
    if p == 2 or a == 0:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    m, t, r = s, pow(a, q, p), pow(a, (q + 1) // 2, p)
    z = 2  # a non-residue, below p as p is prime; sought only while t != 1 (p = 1 mod 4)
    while t != 1 and pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:  # t^(2^(m - 1)) = 1, so i < m, and m falls to i
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r
