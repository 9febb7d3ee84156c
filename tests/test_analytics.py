from fractions import Fraction

import pytest

from enumtree.analytics import (
    prime_representation,
    primes_with_divisor,
    ratio_closed_form,
    roots_mod_p,
    row_stats,
    row_stats_direct,
    row_stats_recursive,
)
from enumtree.maps import int_tree_rows, tree_rows
from enumtree.pairs import ENUMERABLE_POLYS, PHI0, PHI1
from oracles import quadratic_roots_scan, replay_n_values, row_ratio_sum, trial_is_prime


def test_row_stats_direct_examples():
    st0 = row_stats_direct(PHI0, 0)
    assert (st0.m_sum, st0.n_sum, st0.ratio_sum) == (1, 0, Fraction(0))
    st1 = row_stats_direct(PHI0, 1)
    assert (st1.m_sum, st1.n_sum, st1.ratio_sum) == (3, 2, Fraction(3, 2))
    # row 2 pairs are (1,2), (5,3), (2,3), (5,2); sums computed directly
    st2 = row_stats_direct(PHI0, 2)
    assert st2.m_sum == 1 + 5 + 2 + 5 == 13
    assert st2.n_sum == 2 + 3 + 3 + 2 == 10
    assert st2.ratio_sum == Fraction(2, 1) + Fraction(3, 5) + Fraction(3, 2) + Fraction(2, 5)
    assert st2.ratio_sum == Fraction(9, 2)


def test_row_stats_direct_other_trees():
    # row 1 of x^2+x+1 holds (1,1) and (3,1)
    st1 = row_stats_direct(PHI1, 1)
    assert (st1.m_sum, st1.n_sum, st1.ratio_sum) == (4, 2, Fraction(4, 3))


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
def test_row_sums_match_naive_left_to_right_sums(f):
    for k, row in enumerate(tree_rows(f, 11)):
        ratio = Fraction(0)
        for p in row:
            ratio = ratio + Fraction(p.n, p.m)
        expected = (sum(p.m for p in row), sum(p.n for p in row), ratio)
        st = row_stats_direct(f, k)
        assert (st.k, st.m_sum, st.n_sum, st.ratio_sum) == (k, *expected)
        st = row_stats(k, [p.components() for p in reversed(row)])
        assert (st.k, st.m_sum, st.n_sum, st.ratio_sum) == (k, *expected)


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
def test_row_stats_matches_the_term_by_term_oracle(f):
    for k, row in enumerate(int_tree_rows(f, 11)):
        st = row_stats(k, row)
        assert st.ratio_sum == row_ratio_sum(row), k
        assert (st.m_sum, st.n_sum) == (sum(m for m, _ in row), sum(n for _, n in row))


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
def test_row_stats_reads_its_row_once(f):
    for k, row in enumerate(int_tree_rows(f, 10)):
        assert row_stats(k, iter(row)) == row_stats(k, row), k


def test_row_stats_on_a_row_with_repeated_m_and_a_zero_n():
    row = [(6, 4), (1, 0), (6, 9), (4, 2), (6, 0), (9, 6), (4, 6), (3, 0), (9, 3)]
    st = row_stats(7, row)
    assert (st.k, st.m_sum, st.n_sum) == (7, 48, 30)
    assert st.ratio_sum == row_ratio_sum(row) == Fraction(13, 6) + 2 + 1
    assert isinstance(st.ratio_sum, Fraction)


def test_phi0_row_ratio_sums_match_closed_form():
    for k, row in enumerate(int_tree_rows(PHI0, 16)):
        assert row_stats(k, row).ratio_sum == ratio_closed_form(k)


def test_row_stats_recursive_examples():
    assert row_stats_recursive(2).m_sum == 5 * 3 - 2 * 1 == 13
    st0 = row_stats_recursive(0)
    assert (st0.m_sum, st0.n_sum, st0.ratio_sum) == (1, 0, Fraction(0))
    assert row_stats_recursive(10).ratio_sum == Fraction(3, 2) * (2**10 - 1) == Fraction(3069, 2)


def test_recursive_matches_direct():
    for k in range(15):
        direct = row_stats_direct(PHI0, k)
        rec = row_stats_recursive(k)
        assert direct.m_sum == rec.m_sum
        assert direct.n_sum == rec.n_sum
        assert direct.ratio_sum == rec.ratio_sum


def test_characteristic_recursion_on_direct_sums():
    for f in ENUMERABLE_POLYS:  # the step of the module docstring, on every tree
        stats = [row_stats_direct(f, k) for k in range(15)]
        for k in range(2, 15):
            m, n = stats[k - 1].m_sum, stats[k - 1].n_sum
            assert stats[k].m_sum == 3 * m + 2 * n + f.beta * 2 ** (k - 1), (f.name, k)
            assert stats[k].n_sum == 2 * m + 2 * n, (f.name, k)
    stats = [row_stats_direct(PHI0, k) for k in range(15)]
    assert stats[0].m_sum == 1 and stats[1].m_sum == 3
    assert stats[0].n_sum == 0 and stats[1].n_sum == 2
    for k in range(2, 15):
        assert stats[k].m_sum == 5 * stats[k - 1].m_sum - 2 * stats[k - 2].m_sum
        assert stats[k].n_sum == 5 * stats[k - 1].n_sum - 2 * stats[k - 2].n_sum


def test_ratio_closed_form():
    assert ratio_closed_form(0) == 0
    assert ratio_closed_form(2) == Fraction(9, 2)
    for k in range(15):
        assert row_stats_direct(PHI0, k).ratio_sum == ratio_closed_form(k)
    assert abs(ratio_closed_form(12) / 2**12 - Fraction(3, 2)) < Fraction(1, 1000)


def test_prime_representation_113_both_roots():
    rep = prime_representation(PHI0, 113, 15)
    assert rep.n_values == (1, 15)
    assert rep.exponents == (-1, 1)
    assert rep.factors() == [(2, -1), (226, 1)]
    assert rep.product() == 113  # 113 = (15^2+1)/(1^2+1)

    rep = prime_representation(PHI0, 113, 98)
    assert rep.n_values == (1, 13, 98)
    assert rep.exponents == (1, -1, 1)
    assert rep.factors() == [(2, 1), (170, -1), (9605, 1)]
    assert rep.product() == 113  # 113 = (98^2+1)(1^2+1)/(13^2+1)


def test_prime_representation_trivial_chain():
    rep = prime_representation(PHI0, 2, 1)
    assert rep.n_values == (1,) and rep.exponents == (1,)
    assert rep.product() == 2


def test_prime_representation_guards():
    with pytest.raises(ValueError):
        prime_representation(PHI0, 10, 3)  # 10 not prime
    with pytest.raises(ValueError):
        prime_representation(PHI0, 5, 1)  # 5 does not divide 2
    with pytest.raises(ValueError):
        prime_representation(PHI0, 113, 128)  # n >= p


def test_prime_representations_exact_up_to_500():
    for p in primes_with_divisor(PHI0, 500):
        for n in roots_mod_p(PHI0, p):
            rep = prime_representation(PHI0, p, n)
            assert rep.product() == p
            assert list(rep.n_values) == sorted(set(rep.n_values))
            assert rep.n_values[-1] < p
            assert rep.exponents[-1] == 1


def test_prime_representations_match_the_replay_up_to_3000():
    for f in ENUMERABLE_POLYS:
        c0, c1, _ = f.poly.coeffs
        for p in primes_with_divisor(f, 3000):
            for n in roots_mod_p(f, p):
                rep = prime_representation(f, p, n)
                assert list(rep.n_values) == replay_n_values(c0, c1, p, n), (f, p, n)


def test_roots_mod_p_examples():
    assert roots_mod_p(PHI0, 113) == [15, 98]
    assert roots_mod_p(PHI0, 3) == []
    assert roots_mod_p(PHI0, 2) == [1]


def test_roots_mod_p_against_scan():
    for f in ENUMERABLE_POLYS:
        c0, c1 = f.poly.coeffs[0], f.poly.coeffs[1]
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 97, 101, 113, 199):
            assert roots_mod_p(f, p) == quadratic_roots_scan(c0, c1, p), (f.name, p)


def test_primes_with_divisor_examples():
    assert primes_with_divisor(PHI0, 30) == [2, 5, 13, 17, 29]
    assert primes_with_divisor(PHI0, 2) == [2]
    assert primes_with_divisor(PHI1, 13) == [3, 7, 13]


def test_prime_divisor_set_of_x_squared_plus_one():
    # {2} together with the primes congruent to 1 mod 4, checked to 10^4
    got = primes_with_divisor(PHI0, 10**4)
    expected = [2] + [
        p for p in range(3, 10**4 + 1, 2) if trial_is_prime(p) and p % 4 == 1
    ]
    assert got == expected
