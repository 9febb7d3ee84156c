import pytest

from enumtree.classify import (
    LEFT,
    RIGHT,
    PolynomialVanishes,
    check_condition,
    composite_witness,
    injectivity_surjectivity_report,
    scan_violations,
)
from enumtree.pairs import ENUMERABLE_POLYS, PHI0, Poly, poly
from oracles import trial_divisors, trial_is_prime


def test_check_condition_examples():
    cert = check_condition(poly(1, 5, 1), 5, 3)
    assert cert is not None and cert.side == LEFT  # min(5, 5) = 5 > 3
    assert check_condition(PHI0, 2, 3) is None  # 2 <= 3 < 5
    cert = check_condition(poly(1, 3), 4, 5)  # f(5) = 16, max(4, 4) = 4 < 5
    assert cert is not None and cert.side == RIGHT


def test_check_condition_equality_edge():
    # the left inequality holds with equality exactly at (1, 1)
    assert check_condition(PHI0, 1, 1) is None


def test_check_condition_guards():
    with pytest.raises(ValueError):
        check_condition(PHI0, 3, 1)  # not a divisor pair
    with pytest.raises(ValueError):
        check_condition(PHI0, 1, 0)  # root pair excluded
    with pytest.raises(PolynomialVanishes):
        check_condition(poly(-1, 1), 1, 1)  # f(1) = 0


def test_scan_enumerables_clean():
    for f in ENUMERABLE_POLYS:
        assert scan_violations(f, 500) == []


def test_scan_finds_published_witnesses():
    hits = {(c.m, c.n): c.side for c in scan_violations(poly(1, 5, 1), 10)}
    assert hits[(5, 3)] == LEFT
    hits = {(c.m, c.n): c.side for c in scan_violations(poly(-1, 1, 1), 5)}
    assert hits == {(1, 1): RIGHT}
    for a in (1, 2, 3):
        hits = {(c.m, c.n): c.side for c in scan_violations(poly(1, a), 10)}
        assert hits[(a + 1, a + 2)] == RIGHT


def test_scan_unit_value_witness():
    # |f(4)| = 1 for x^2 - 4x + 1, so (1, 4) fails on the right
    hits = {(c.m, c.n): c.side for c in scan_violations(poly(1, -4, 1), 5)}
    assert hits[(1, 4)] == RIGHT


def test_scan_reports_vanishing_point():
    with pytest.raises(PolynomialVanishes) as exc:
        scan_violations(poly(-1, 1), 5)  # x - 1 vanishes at n = 1
    assert exc.value.root == 1


def test_scan_is_ordered_and_complete():
    certs = scan_violations(poly(1, 5, 1), 6)
    keys = [(c.n, c.m) for c in certs]
    assert keys == sorted(keys)
    # independent recount at n = 2: violations among all divisors of 15
    expected = []
    for m in trial_divisors(15):
        cof = 15 // m
        if min(m, cof) > 2 or 2 >= max(m, cof):
            expected.append(m)
    assert [c.m for c in certs if c.n == 2] == expected


@pytest.mark.parametrize("n_max", [10, 60])
def test_scan_evaluates_f_once_per_n_and_agrees_with_check_condition(monkeypatch, n_max):
    f = poly(1, 5, 1)
    expected = [
        cert
        for n in range(n_max + 1)
        for m in trial_divisors(abs(f(n)))
        if (m, n) != (1, 0) and (cert := check_condition(f, m, n)) is not None
    ]
    seen = []
    evaluate = Poly.__call__
    monkeypatch.setattr(Poly, "__call__", lambda g, n: seen.append(n) or evaluate(g, n))
    assert scan_violations(f, n_max) == expected
    assert seen == list(range(n_max + 1))


def test_scan_same_for_negated_polynomial():
    f = poly(1, 5, 1)
    a = [(c.m, c.n, c.side) for c in scan_violations(f, 20)]
    b = [(c.m, c.n, c.side) for c in scan_violations(-f, 20)]
    assert a == b


def test_nonenumerable_monic_quadratics_flagged_up_to_20():
    enumerable = {(1, 0), (1, 1), (-1, 2), (1, 3)}
    for b in range(21):
        for c0 in (1, -1):
            if (c0, b) in enumerable:
                continue
            f = poly(c0, b, 1)
            n_max = max(b * b, 4)
            try:
                certs = scan_violations(f, n_max)
            except PolynomialVanishes:
                continue  # a root on the range, not enumerable either
            assert certs, f"expected a violation for {f}"


def test_prime_values_of_enumerables():
    for f in ENUMERABLE_POLYS:
        f1 = abs(f.poly(1))
        for v in (f1, abs(f.poly(2)), abs(f.poly(f1))):
            assert trial_is_prime(v), (f.name, v)


def test_report_splits_by_side():
    rep = injectivity_surjectivity_report(PHI0, 500)
    assert rep["injective_up_to"] and rep["surjective_up_to"]
    rep = injectivity_surjectivity_report(poly(1, 5, 1), 10)
    assert not rep["surjective_up_to"]
    assert rep["injective_up_to"]
    assert (5, 3) in {(c.m, c.n) for c in rep["witnesses"]["surjectivity"]}
    rep = injectivity_surjectivity_report(poly(1, 1), 10)
    assert not rep["injective_up_to"]
    assert (2, 3) in {(c.m, c.n) for c in rep["witnesses"]["injectivity"]}


def test_composite_witness_quadratic():
    a, n0, f1, f2 = composite_witness(poly(1, 0, 2))
    f = poly(1, 0, 2)
    assert f(n0) == f1 * f2
    assert f1 == n0 + a and f2 - n0 >= 1
    assert min(f1, f2) > n0
    cert = check_condition(f, f1, n0)
    assert cert is not None and cert.side == LEFT


def test_composite_witness_cubic():
    f = poly(1, 0, 0, 1)
    a, n0, f1, f2 = composite_witness(f)
    assert f(n0) == f1 * f2 and min(f1, f2) > n0
    cert = check_condition(f, f1, n0)
    assert cert is not None and cert.side == LEFT


def test_composite_witness_more_shapes():
    for coeffs in [(3, 1, 5), (1, 2, 0, 3), (7, 0, 0, 0, 2)]:
        f = poly(*coeffs)
        a, n0, f1, f2 = composite_witness(f)
        assert f(n0) == f1 * f2 and min(f1, f2) > n0


def test_composite_witness_factors_need_no_check():
    # n0 + a = |f(-a)| divides f(n0) and the cofactor exceeds n0, for every shape in range
    shapes = [poly(c0, c1, lead) for lead in range(2, 6) for c1 in range(-9, 10, 3)
              for c0 in range(-9, 10, 3)]
    shapes += [poly(c0, c1, c2, lead) for lead in (1, 2) for c2 in (-5, 0, 5) for c1 in (-4, 4)
               for c0 in (-7, 0, 7)]
    for f in shapes:
        a, n0, f1, f2 = composite_witness(f)
        assert (f1, f1 * f2) == (n0 + a, f(n0)) and min(f1, f2) > n0 > 2 * a, f


def test_composite_witness_takes_the_least_certified_a():
    # the least a with |f(-a)| > 3a and 2 f(n) > 3 n^2 for every n > 2a; past n = 5000
    # every shape below has 2 f - 3 x^2 > 0, and for 2x^2 - 100x + 1 it is negative up to 199;
    # it is (x - 8)^2 for 2x^2 - 8x + 32, 0 at n = 8, and 1 at n = 81 for 2x^2 - 40x - 40
    for coeffs, least in [((1, -100, 2), 100), ((1, -50, 3), 17), ((-7, 0, -60, 1), 31),
                          ((32, -8, 2), 4), ((-40, -40, 2), 40)]:
        f = poly(*coeffs)
        a = next(
            a for a in range(1, 2500)
            if abs(f(-a)) > 3 * a and all(2 * f(n) > 3 * n * n for n in range(2 * a + 1, 5000))
        )
        assert composite_witness(f)[0] == a == least, f


def test_composite_witness_preconditions():
    with pytest.raises(ValueError):
        composite_witness(PHI0)  # monic quadratic is out of range
    with pytest.raises(ValueError):
        composite_witness(poly(1, 1))  # degree 1
    with pytest.raises(ValueError):
        composite_witness(poly(1, 0, -2))  # negative lead
