import random
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enumtree import arith
from enumtree.arith import divisors, factorize, is_prime, primes_up_to, sqrt_mod, tau
from oracles import trial_divisors, trial_factorize, trial_is_prime, trial_tau


def test_jacobi_is_the_product_of_euler_criteria():
    # first in this module: with a wrong Jacobi symbol the Lucas test below never ends
    # (a / n) = prod over p^e || n of (a / p)^e, with (a / p) = a^((p - 1) / 2) mod p
    for n in range(1, 300, 2):
        for a in range(-20, 80):
            want = prod(
                (1 if (r := pow(a, (p - 1) // 2, p)) == 1 else -1 if r == p - 1 else 0) ** e
                for p, e in trial_factorize(n).items()
            )
            assert arith._jacobi(a, n) == want, (a, n)


def test_is_prime_small_range():
    for n in range(2000):
        assert is_prime(n) == trial_is_prime(n), n


def test_is_prime_known_hard_cases():
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


# psi_12: the least strong pseudoprime to the twelve prime bases 2..37.
PSI_12 = 318665857834031151167461


def test_is_prime_rejects_the_least_strong_pseudoprime_to_bases_up_to_37():
    assert not is_prime(PSI_12)
    assert factorize(PSI_12) == {399165290221: 1, 798330580441: 1}
    assert tau(PSI_12) == 4


# psi_t (OEIS A014233): the least strong pseudoprime to the first t prime bases.
PSI = [
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
]


def test_is_prime_stops_at_the_published_psi_bounds():
    assert list(arith._PSI) == PSI
    # psi_t is a bound for the first t primes as bases, and for no others
    assert arith._MR_BASES == tuple(primes_up_to(41))
    assert len(arith._MR_BASES) == len(PSI)
    # each psi_t passes the rounds before the t-th stop, so a <= there would call it prime
    for t, psi in enumerate(PSI, 1):
        assert not is_prime(psi), t


def test_is_prime_rejects_psi_13_by_the_lucas_test():
    psi_13 = PSI[-1]
    assert not is_prime(psi_13)
    assert factorize(psi_13) == {1287836182261: 1, 2575672364521: 1}
    assert tau(psi_13) == 4


@pytest.mark.parametrize(
    "n",
    [
        561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,
        82203157 * 164406313 * 246609469,  # (6k+1)(12k+1)(18k+1) above psi_13
        82206367 * 164412733 * 246619099,
    ],
)
def test_carmichael_numbers_are_composite(n):
    assert not is_prime(n)


def test_strong_lucas_pseudoprimes_pass_lucas_but_not_is_prime():
    # OEIS A217255: composites passing the strong Lucas test with Selfridge's parameters
    for n in (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519):
        assert arith._is_strong_lucas_prp(n) and not is_prime(n), n
    for p in (43, 47, 997, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1):
        assert arith._is_strong_lucas_prp(p), p
    for n in (997**2, (2**61 - 1) ** 2, (2**89 - 1) ** 2):  # a square has no Selfridge D
        assert not is_prime(n), n


def test_is_prime_agrees_with_the_sieve_below_200000():
    primes = set(primes_up_to(200_000))
    assert [n for n in range(200_000) if is_prime(n) != (n in primes)] == []


def test_factorize_small_range():
    for n in range(1, 2000):
        assert factorize(n) == trial_factorize(n), n


@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


@pytest.mark.parametrize(
    "n, expected",
    [
        (997**2, {997: 2}),
        (991 * 997, {991: 1, 997: 1}),
        (997 * 1009, {997: 1, 1009: 1}),
        (1009 * 1013, {1009: 1, 1013: 1}),
        (1009**2, {1009: 2}),
        (999983, {999983: 1}),
        (2 * 999983, {2: 1, 999983: 1}),
    ],
)
def test_factorize_around_the_end_of_trial_division(n, expected):
    # 997 is the last trial prime: cofactors from 997^2 on are left to is_prime
    assert factorize(n) == expected


def test_factorize_below_997_squared_never_tests_primality(monkeypatch):
    calls = []
    monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or is_prime(n))
    rng = random.Random(997)
    for n in [*range(1, 5000), *(rng.randrange(5000, 997**2) for _ in range(3000)), 997**2 - 1]:
        fac = factorize(n)
        assert all(trial_is_prime(p) for p in fac), n
        assert prod(p**e for p, e in fac.items()) == n
    assert calls == []
    factorize(1009 * 1013)  # a cofactor trial division leaves open
    assert sorted(calls) == [1009, 1013, 1009 * 1013]


def test_is_prime_and_factorize_agree_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(60120)
    for _ in range(16):
        p = sympy.nextprime(rng.getrandbits(rng.randint(60, 120)))
        assert is_prime(p) and factorize(p) == {p: 1}
        small = sympy.nextprime(rng.getrandbits(rng.randint(20, 26)))
        n = small * sympy.nextprime(rng.getrandbits(rng.randint(40, 94)))
        assert not is_prime(n) and factorize(n) == sympy.factorint(n), n
        odd = rng.getrandbits(rng.randint(60, 120)) | 1
        assert is_prime(odd) == sympy.isprime(odd), odd
    # from 82 bits on, n >= psi_13: the Baillie-PSW path; rho factors the small side
    for _ in range(16):
        p = sympy.nextprime(rng.getrandbits(rng.randint(82, 128)))
        assert is_prime(p) and factorize(p) == {p: 1}
        bits = rng.randint(82, 128)
        n = sympy.nextprime(rng.getrandbits(bits // 2)) * sympy.nextprime(rng.getrandbits(bits // 2))
        assert not is_prime(n), n
        n = sympy.nextprime(rng.getrandbits(24)) * sympy.nextprime(rng.getrandbits(bits - 24))
        assert not is_prime(n) and factorize(n) == sympy.factorint(n), n


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_divisors_and_tau():
    for n in (1, 2, 12, 97, 360, 1009 * 1013):
        assert divisors(n) == trial_divisors(n)
        assert tau(n) == trial_tau(n)


def test_primes_up_to():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert len(primes_up_to(10**4)) == 1229


def test_sqrt_mod_exhaustive_small_primes():
    for p in primes_up_to(200):
        residues = {x * x % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod(a, p)
            if a in residues:
                assert r is not None and r * r % p == a, (a, p)
            else:
                assert r is None, (a, p)


def test_sqrt_mod_matches_the_p_3_mod_4_formula():
    # for p = 3 (mod 4), Tonelli-Shanks has s = 1 and returns a^((p + 1) / 4) itself
    for p in primes_up_to(2000):
        if p % 4 == 3:
            for a in {x * x % p for x in range(p)}:
                assert sqrt_mod(a, p) == pow(a, (p + 1) // 4, p), (a, p)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 21, 25, 33, 65, 105, 561, -7])
def test_sqrt_mod_refuses_a_modulus_that_is_not_prime(p):
    # for 9, 21, 25, 33, 65, 105 and 561 no z passes the non-residue test, so a
    # search for one would never end
    with pytest.raises(ValueError, match=f"{p} is not prime"):
        sqrt_mod(1, p)


def test_sqrt_mod_large_prime():
    p = 2**61 - 1
    a = 1234567890123456789 % p
    r = sqrt_mod(a * a % p, p)
    assert r is not None and r * r % p == a * a % p
