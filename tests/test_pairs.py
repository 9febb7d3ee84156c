from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import enumtree
from enumtree.analytics import prime_representation
from enumtree.classify import check_condition
from enumtree.maps import _int_rows, f_hat_inverse
from enumtree.pairs import (
    ENUMERABLE_POLYS,
    PHI0,
    PHI1,
    PHI3,
    PSI2,
    BadPair,
    DivisorPair,
    EnumerablePoly,
    c_bar,
    make_pair,
    pair_in_df,
    poly,
    poly_eval,
    s_bar,
    s_bar_inv,
    t_bar,
)
from oracles import trial_divisors


def test_poly_eval_examples():
    assert poly_eval(PHI0, 7) == 50
    assert poly_eval(PSI2, 0) == -1
    assert poly_eval(PHI3, 164) == 27389 == 61 * 449


def test_poly_normalization_and_str():
    assert poly(1, 5, 1).degree == 2
    assert poly(1, 0, 1, 0, 0) == poly(1, 0, 1)
    assert str(poly(1, 5, 1)) == "x^2+5x+1"
    assert str(poly(-1, 2, 1)) == "x^2+2x-1"
    assert str(poly(1, 3)) == "3x+1"
    assert str(poly()) == "0"
    assert str(-poly(1, 5, 1)) == "-x^2-5x-1"


def test_poly_refuses_a_non_integer_coefficient():
    with pytest.raises(ValueError, match=r"coefficients must be integers, got \(0\.5, 1\)"):
        poly(0.5, 1)


def test_enumerable_poly_must_be_monic_quadratic():
    for f in (poly(1, 0, 2), poly(1, 1), poly(1, 0, 0, 1), poly(5), poly()):
        with pytest.raises(ValueError, match="not a monic quadratic"):
            EnumerablePoly("f", f)


def test_beta_is_read_off_the_polynomial():
    assert EnumerablePoly.__slots__ == ("name", "poly")
    for f in (*ENUMERABLE_POLYS, EnumerablePoly("x^2+5x+1", poly(1, 5, 1))):
        assert f.beta == f.poly.coeffs[1]


@pytest.mark.parametrize(
    "f, root",
    [(poly(-1, 0, 1), 1), (poly(0, 0, 1), 0), (poly(-2, 1, 1), 1), (poly(-4, 0, 1), 2)],
    ids=str,
)
def test_enumerable_poly_must_not_vanish_on_the_tree(f, root):
    with pytest.raises(ValueError, match=f"vanishes at n = {root}"):
        EnumerablePoly("f", f)


def test_enumerable_poly_accepts_the_trees_and_roots_off_the_tree():
    # x^2 + 5x + 1 has irrational roots; x^2 + 3x + 2 vanishes only at -1 and -2
    for f in (*(g.poly for g in ENUMERABLE_POLYS), poly(1, 5, 1), poly(2, 3, 1)):
        assert EnumerablePoly("f", f).poly == f


def test_enumerable_constants():
    assert [f.name for f in ENUMERABLE_POLYS] == ["phi0", "phi1", "psi2", "phi3"]
    assert PHI0.poly == poly(1, 0, 1)
    assert PHI1.poly == poly(1, 1, 1)
    assert PSI2.poly == poly(-1, 2, 1)
    assert PHI3.poly == poly(1, 3, 1)
    assert [f.beta for f in ENUMERABLE_POLYS] == [0, 1, 2, 3]


def test_pair_in_df_examples():
    assert pair_in_df(PHI1, 37, 100)  # 37 | 10101
    assert pair_in_df(PHI0, 1, 0)
    assert 2 % 3 != 0  # oracle: 3 does not divide |f(1)| = 2
    assert not pair_in_df(PHI0, 3, 1)


def test_pair_construction_guards():
    with pytest.raises(ValueError):
        make_pair(0, 5, PHI0)
    with pytest.raises(ValueError):
        make_pair(3, 1, PHI0)
    with pytest.raises(ValueError):
        make_pair(1, -1, PHI0)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: make_pair(0, 5, PHI0),
        lambda: make_pair(1, -1, PHI0),
        lambda: make_pair(3, 1, PHI0),
        lambda: f_hat_inverse(PHI0, make_pair(3, 1, PHI1)),  # a pair of another tree
        lambda: prime_representation(PHI0, 10, 3),  # 10 is not prime
        lambda: prime_representation(PHI0, 113, 128),  # n >= p
        lambda: check_condition(PHI0, 3, 1),
    ],
)
def test_bad_pairs_raise_bad_pair(bad):
    with pytest.raises(BadPair):
        bad()


@pytest.mark.parametrize("m, n, message", [
    (4.25, 4.5, "first component must be an integer >= 1, got 4.25"),  # 4.25 | f(4.5) = 21.25
    (1.0, 1, "first component must be an integer >= 1, got 1.0"),
    (1, 1.0, "second component must be an integer >= 0, got 1.0"),
    (1.0, 2, "first component must be an integer >= 1, got 1.0"),  # 1.0 | f(2) = 5
    (2, 1.0, "second component must be an integer >= 0, got 1.0"),  # 2 | f(1.0) = 2.0
    (0, 5, "first component must be an integer >= 1, got 0"),
    (1, -1, "second component must be an integer >= 0, got -1"),
])
def test_pair_components_are_integers_in_range(m, n, message):
    with pytest.raises(BadPair) as info:
        make_pair(m, n, PHI0)
    assert str(info.value) == message
    assert not pair_in_df(PHI0, m, n)  # membership says no to what make_pair refuses
    with pytest.raises(BadPair) as info:
        check_condition(PHI0, m, n)
    assert str(info.value) == message


def test_bad_pair_is_a_public_value_error():
    assert issubclass(BadPair, ValueError)
    assert enumtree.BadPair is BadPair and "BadPair" in enumtree.__all__
    with pytest.raises(ValueError) as info:
        check_condition(PHI0, 1, 0)  # a pair, but the root is excluded
    assert type(info.value) is ValueError
    with pytest.raises(BadPair, match=r"^3 does not divide \|f\(1\)\| for f = x\^2\+1$"):
        make_pair(3, 1, PHI0)


def test_s_bar_examples():
    assert s_bar(make_pair(5, 3, PHI0)) == make_pair(5, 8, PHI0)
    assert s_bar(make_pair(1, 0, PHI0)) == make_pair(1, 1, PHI0)
    assert s_bar(make_pair(2, 3, PHI0)) == make_pair(2, 5, PHI0)


def test_c_bar_examples():
    assert c_bar(make_pair(2, 3, PHI0)) == make_pair(5, 3, PHI0)
    for f in ENUMERABLE_POLYS:
        assert c_bar(make_pair(1, 0, f)) == make_pair(1, 0, f)
    assert c_bar(make_pair(113, 15, PHI0)) == make_pair(2, 15, PHI0)


def test_t_bar_examples():
    assert t_bar(make_pair(1, 0, PHI0)) == make_pair(2, 1, PHI0)
    assert t_bar(make_pair(1, 1, PHI0)) == make_pair(5, 3, PHI0)
    assert t_bar(make_pair(1, 0, PHI3)) == make_pair(5, 1, PHI3)


def test_s_bar_inv_examples():
    assert s_bar_inv(make_pair(2, 15, PHI0)) == make_pair(2, 13, PHI0)
    assert s_bar_inv(make_pair(1, 1, PHI0)) == make_pair(1, 0, PHI0)
    with pytest.raises(ValueError):
        s_bar_inv(make_pair(5, 3, PHI0))


# Valid pairs drawn from the divisor structure itself.
@st.composite
def divisor_pairs(draw):
    f = draw(st.sampled_from(ENUMERABLE_POLYS))
    n = draw(st.integers(min_value=0, max_value=400))
    divs = trial_divisors(abs(f.poly(n)))
    m = draw(st.sampled_from(divs))
    return make_pair(m, n, f)


@given(divisor_pairs())
def test_moves_preserve_membership(p):
    # moves build their results without the constructor's check
    for q in (s_bar(p), c_bar(p), t_bar(p), s_bar_inv(s_bar(p))):
        assert q.poly == p.poly
        assert q.m >= 1 and q.n >= 0
        assert abs(q.poly(q.n)) % q.m == 0
        assert q == DivisorPair(q.m, q.n, q.poly)


@given(divisor_pairs())
def test_c_bar_is_involution(p):
    assert c_bar(c_bar(p)) == p


@given(divisor_pairs())
def test_t_bar_is_conjugated_s_bar(p):
    assert t_bar(p) == c_bar(s_bar(c_bar(p)))


@given(divisor_pairs())
def test_cofactor_shift_children_are_s_bar_and_t_bar(p):
    f = p.poly
    _, (children, cofs) = _int_rows(f.coeffs[1], [(p.m, p.n)], [f(p.n) // p.m], 1)
    assert children == [s_bar(p).components(), c_bar(s_bar(c_bar(p))).components()]
    assert cofs == [f(n) // m for m, n in children]


def test_moves_where_f_vanishes_are_value_errors():
    f = poly(-1, 1)  # x - 1 vanishes at 1
    for move in (c_bar, t_bar):
        with pytest.raises(ValueError):
            move(make_pair(1, 1, f))


@given(divisor_pairs())
def test_s_bar_inverts(p):
    assert s_bar_inv(s_bar(p)) == p


def test_gcd_of_n_and_value_is_one():
    for f in ENUMERABLE_POLYS:
        for n in range(10**4 + 1):
            assert gcd(n, abs(f.poly(n))) == 1, (f.name, n)


def test_pair_set_ignores_sign_of_f():
    f = PHI0.poly
    g = -f
    for n in range(0, 60):
        assert trial_divisors(abs(f(n))) == trial_divisors(abs(g(n)))
    p = make_pair(2, 3, f)
    q = make_pair(2, 3, g)
    assert c_bar(p).components() == c_bar(q).components()
    assert t_bar(p).components() == t_bar(q).components()


def test_cross_context_pairs_are_distinct():
    assert make_pair(2, 3, PHI0) != make_pair(2, 3, PSI2)
