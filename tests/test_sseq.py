import random
import re
import tracemalloc
from dataclasses import FrozenInstanceError
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumtree import sseq
from enumtree.arith import divisors
from enumtree.maps import NodeBudgetExceeded, f_hat, f_hat_inverse, int_tree_rows, tree_rows
from enumtree.monoid import index_to_word, word_to_matrix
from enumtree.pairs import (
    ENUMERABLE_POLYS,
    PHI0,
    PHI1,
    PHI3,
    PSI2,
    EnumerablePoly,
    c_bar,
    make_pair,
    pair_in_df,
    poly,
)
from enumtree.sseq import (
    L_MATRIX,
    R_MATRIX,
    SSeqKernel,
    kernel_for,
    net_expand,
    vector_tree_rows,
)
from oracles import row_sums_by_representation, trial_divisors, trial_is_prime, trial_tau

ABSTRACT_PREFIX = [0, 1, 1, 2, 3, 3, 2, 3, 7, 8, 5, 5, 8, 7, 3]


def test_phi0_prefix_matches_published_listing():
    assert kernel_for(PHI0).s_prefix(15) == ABSTRACT_PREFIX


def test_psi2_seeds():
    assert kernel_for(PSI2).s_prefix(7) == [0, 1, 1, 2, 3, 3, 2]


def test_prefix_of_one():
    for f in ENUMERABLE_POLYS:
        assert kernel_for(f).s_prefix(1) == [0]


def test_s_value_examples():
    k0 = kernel_for(PHI0)
    assert [k0.s_value(k) for k in range(1, 16)] == ABSTRACT_PREFIX
    # hand-unrolled recursion: s(9) = 2*s(4) + s(5) = 2*2 + 3
    assert k0.s_value(9) == 7


def test_power_of_two_boundary_all_kernels():
    for f in ENUMERABLE_POLYS:
        kern = kernel_for(f)
        for n in (*range(21), 3000):
            assert kern.s_value(1 << n) == n
            assert kern.s_value((1 << (n + 1)) - 1) == n


def test_pair_at_on_deep_fiber_matches_closed_form():
    kern = kernel_for(PHI0)
    fiber = kern.fiber(1500)
    assert len(fiber) >= 2
    for k in fiber:
        p = kern.pair_at(k)
        assert p.n == 1500
        assert p == f_hat(PHI0, word_to_matrix(index_to_word(k)))


def test_pair_at_on_random_deep_indices_matches_closed_form():
    rng = random.Random(2405)
    for f in ENUMERABLE_POLYS:
        kern = kernel_for(f)
        for _ in range(20):
            k = rng.getrandbits(2000) | (1 << 1999)
            assert kern.pair_at(k) == f_hat(f, word_to_matrix(index_to_word(k)))


def test_pointwise_lookups_retain_bounded_memory():
    kern = kernel_for(PSI2)
    rng = random.Random(800)
    indices = [rng.getrandbits(800) | (1 << 799) for _ in range(30)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in indices:
            kern.s_value(k)
            kern.pair_at(k)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


@given(st.sampled_from(ENUMERABLE_POLYS), st.integers(min_value=1, max_value=3000))
@settings(max_examples=60)
def test_prefix_matches_pointwise(f, count):
    kern = kernel_for(f)
    prefix = kern.s_prefix(count)
    for k in (1, count // 2 + 1, count):
        assert prefix[k - 1] == kern.s_value(k)


def test_prefix_equals_tree_second_components():
    for f in ENUMERABLE_POLYS:
        flat = [p.n for row in tree_rows(f, 10) for p in row]
        assert kernel_for(f).s_prefix(len(flat)) == flat


def test_pair_at_examples():
    k0 = kernel_for(PHI0)
    assert k0.pair_at(5).components() == (5, 3)
    assert k0.pair_at(1).components() == (1, 0)
    assert k0.pair_at(9).components() == (10, 7)


def test_pair_at_matches_tree():
    # pair_at builds its node unchecked: each is the tree's, and a pair of f
    for f in ENUMERABLE_POLYS:
        kern = kernel_for(f)
        flat = [p for row in tree_rows(f, 12) for p in row]
        for k, p in enumerate(flat, start=1):
            node = kern.pair_at(k)
            assert node == p and pair_in_df(f, node.m, node.n)


def test_two_regular_branch_identities_exhaustive():
    bound = 1 << 14
    for f in ENUMERABLE_POLYS:
        kern = kernel_for(f)
        vals = kern.s_prefix(4 * bound + 4)
        s = lambda j: vals[j - 1]
        for k in range(kern.start, bound + 1):
            assert s(4 * k) == 2 * s(2 * k) - s(k)
            assert s(4 * k + 1) == 2 * s(2 * k) + s(2 * k + 1) + f.beta
            assert s(4 * k + 2) == 2 * s(2 * k + 1) + s(2 * k) + f.beta
            assert s(4 * k + 3) == 2 * s(2 * k + 1) - s(k)


# Paper property 4, 2-regularity: v(k) = (s(k), s(2k), s(2k+1), 1) goes to v(2k)
# or v(2k+1) by a fixed affine 4x4 matrix per binary digit, with the tree's
# constant in its last column; v(k) is the product over the digits of k after
# a seeded head j, applied to v(j).  Per tree: constant, head length, seeds v(j).
TWO_REGULAR_SEEDS = {
    "phi0": (0, 1, {1: (0, 1, 1)}),
    "phi1": (1, 1, {1: (0, 1, 1)}),
    "psi2": (2, 2, {1: (0, 1, 1), 2: (1, 2, 3), 3: (1, 3, 2)}),
    "phi3": (3, 1, {1: (0, 1, 1)}),
}


def _mat4_mul(x, y):
    return tuple(tuple(sum(x[i][t] * y[t][j] for t in range(4)) for j in range(4)) for i in range(4))


@given(st.sampled_from(ENUMERABLE_POLYS), st.integers(min_value=1, max_value=1 << 200))
def test_s_value_is_the_digit_product_of_affine_matrices(f, k):
    const, head, seeds = TWO_REGULAR_SEEDS[f.name]
    digit_matrix = {
        "0": ((0, 1, 0, 0), (-1, 2, 0, 0), (0, 2, 1, const), (0, 0, 0, 1)),
        "1": ((0, 0, 1, 0), (0, 1, 2, const), (-1, 0, 2, 0), (0, 0, 0, 1)),
    }
    digits = bin(k)[2:]
    product = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    for digit in digits[head:]:
        product = _mat4_mul(digit_matrix[digit], product)
    v = (*seeds[int(digits[:head], 2)], 1)
    assert kernel_for(f).s_value(k) == sum(product[0][j] * v[j] for j in range(4))


# Paper property 4 on whole rows: per tree, its constant beta and the sums
# (A, B, C) of (s(k), s(2k), s(2k+1)) over row 2 (k = 4..7, past psi2's seeds).
ROW2_TRIPLE_SUMS = {
    "phi0": (0, (10, 23, 23)),
    "phi1": (1, (12, 30, 30)),
    "psi2": (2, (10, 27, 27)),
    "phi3": (3, (16, 44, 44)),
}


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
def test_row_sums_follow_the_linear_representation(f):
    depth = 16
    beta, abc = ROW2_TRIPLE_SUMS[f.name]
    oracle = row_sums_by_representation(abc, 4, beta, depth - 1)
    rows = list(int_tree_rows(f, depth))[2:]
    tree = [(sum(m for m, _ in row), sum(n for _, n in row)) for row in rows]
    s = [0, *kernel_for(f).s_prefix(1 << (depth + 2))]  # s[k] is s(k)
    prefix = [
        (sum(s[2 * k] - s[k] for k in range(1 << r, 2 << r)), sum(s[1 << r : 2 << r]))
        for r in range(2, depth + 1)
    ]
    assert oracle == tree == prefix


# Summing the step of the oracle above over a row: with D = C - B,
#   C' - B' = (2B + 3C - A + beta N) - (3B + 2C - A + beta N) = C - B = D,
# so D is the same on every row; with M = B - A and C = B + D,
#   M'  = B' - A'  = 2B + C - A + beta N         = 3B - A + D + beta N,
#   M'' = 3B' - A' + D + 2 beta N                = 13B - 3A + 6D + 5 beta N,
# and M'' - 5M' + 2M = D: M_{r+2} = 5 M_{r+1} - 2 M_r + (C - B).
def _m_recursion_residues(abc, nodes, beta, rows):
    ms = [m for m, _ in row_sums_by_representation(abc, nodes, beta, rows)]
    return [c - 5 * b + 2 * a for a, b, c in zip(ms, ms[1:], ms[2:])]


def test_row_sum_recursion_follows_from_the_triple_step():
    # The step is linear in (A, B, C, beta N); on each basis vector the residue
    # M_{r+2} - 5 M_{r+1} + 2 M_r of every row r is that vector's C - B.
    for abc, nodes, beta, d in [
        ((1, 0, 0), 1, 0, 0),
        ((0, 1, 0), 1, 0, -1),
        ((0, 0, 1), 1, 0, 1),
        ((0, 0, 0), 1, 1, 0),
    ]:
        assert _m_recursion_residues(abc, nodes, beta, 16) == [d] * 14


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
def test_row_m_sums_follow_the_derived_recursion(f):
    depth = 16
    _, (a, b, c) = ROW2_TRIPLE_SUMS[f.name]
    s = [0, *kernel_for(f).s_prefix(16)]  # s[k] is s(k)
    assert c - b == sum(s[2 * k + 1] - s[2 * k] for k in range(4, 8))
    if f is PHI0:
        assert c - b == 0  # so phi0's M_r = 5 M_{r-1} - 2 M_{r-2}, as row_stats_recursive has it
    ms = [sum(m for m, _ in row) for row in list(int_tree_rows(f, depth))[2:]]
    assert [z - 5 * y + 2 * x for x, y, z in zip(ms, ms[1:], ms[2:])] == [c - b] * (depth - 3)


def test_kernel_parameters():
    assert kernel_for(PHI0).start == 1 and kernel_for(PSI2).start == 2
    # read off the tree: s(1..3) = 0, 1, 1 and, from psi2's row 2, s(4..7) = 2, 3, 3, 2
    assert [kernel_for(f).initial for f in ENUMERABLE_POLYS] == [
        (0, 0, 1, 1), (0, 0, 1, 1), (0, 0, 1, 1, 2, 3, 3, 2), (0, 0, 1, 1)
    ]
    assert kernel_for(PHI3).start == 1 and kernel_for(PHI1).start == 1
    private = SSeqKernel(PHI0, 1, (0, 0, 1, 1))
    with pytest.raises(FrozenInstanceError):
        private.start = 5


def test_vector_tree_first_rows():
    rows = list(vector_tree_rows(2))
    assert rows[0] == [(0, 1, 1)]
    assert rows[1] == [(1, 2, 3), (1, 3, 2)]
    assert rows[2] == [(2, 3, 7), (3, 8, 5), (3, 5, 8), (2, 7, 3)]
    assert (3, 8, 5) in rows[2] and (2, 7, 3) in rows[2]

    def matvec(m, v):
        return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))

    rows = list(vector_tree_rows(15))  # rows 15 and 16 of s come from _rows' blocks
    for parents, children in zip(rows, rows[1:]):
        for j, v in enumerate(parents):
            assert matvec(L_MATRIX, v) == children[2 * j]
            assert matvec(R_MATRIX, v) == children[2 * j + 1]


def test_vector_tree_recovers_pair_tree():
    pair_rows = [[p.components() for p in row] for row in tree_rows(PHI0, 14)]
    for vec_row, pairs in zip(vector_tree_rows(14), pair_rows):
        assert [(b - a, a) for a, b, c in vec_row] == pairs


def test_vector_tree_divisibility_invariant():
    for row in vector_tree_rows(10):
        for a, b, c in row:
            assert (a * a + 1) % (b - a) == 0
            assert c == a + (a * a + 1) // (b - a)


def test_vector_tree_carries_sequence_triples():
    kern = kernel_for(PHI0)
    flat = [v for row in vector_tree_rows(8) for v in row]
    for k, v in enumerate(flat, start=1):
        assert v == (kern.s_value(k), kern.s_value(2 * k), kern.s_value(2 * k + 1))


def test_vector_tree_budget():
    with pytest.raises(NodeBudgetExceeded):
        vector_tree_rows(10, max_nodes=30)


def test_net_examples():
    assert net_expand(0, 1, 1) == (2, 3, 3, 2)
    assert net_expand(1, 2, 3) == (3, 7, 8, 5)
    # derived from the tree: second components of row 2 of x^2+x+1
    row2 = [p.n for p in list(tree_rows(PHI1, 2))[2]]
    assert net_expand(0, 1, 1, const=1) == tuple(row2) == (2, 4, 4, 2)


def test_net_generates_second_component_tree():
    for f in ENUMERABLE_POLYS:
        rows = [[p.n for p in row] for row in tree_rows(f, 9)]
        for k in range(len(rows) - 2):
            if f is PSI2 and k == 0:
                continue  # f(0) = -1 perturbs the first application
            for j, a in enumerate(rows[k]):
                b, c = rows[k + 1][2 * j], rows[k + 1][2 * j + 1]
                grand = rows[k + 2][4 * j : 4 * j + 4]
                assert net_expand(a, b, c, const=f.beta) == tuple(grand)


def test_l_r_matrices_det_and_conjugacy():
    def det3(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    def matmul3(x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3))
            for i in range(3)
        )

    assert det3(L_MATRIX) == 1 and det3(R_MATRIX) == 1
    perm = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    assert det3(perm) == -1
    assert matmul3(matmul3(perm, L_MATRIX), perm) == R_MATRIX
    assert matmul3(matmul3(perm, R_MATRIX), perm) == L_MATRIX


def test_fiber_examples():
    k0 = kernel_for(PHI0)
    assert k0.fiber(3) == {5, 6, 8, 15}
    assert k0.fiber(1) == {2, 3}
    assert k0.fiber(0) == {1}


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
def test_fiber_matches_full_inverse_traces(f):
    kern = kernel_for(f)
    for n in [*range(301), 2000, 5000]:
        expected = {
            f_hat_inverse(f, make_pair(m, n, f)).index for m in divisors(abs(f.poly(n)))
        }
        assert kern.fiber(n) == expected, (f.name, n)


_OTHER_QUADRATICS = [(2, 0), (-2, 0), (1, 5), (3, 4), (5, 1)]  # (c0, c1) of x^2 + c1 x + c0


# Only the root (1, 0) has n = 0, whatever |f(0)| is: (2, 0) of x^2 + 2 is no tree pair.
@pytest.mark.parametrize("f", [
    *ENUMERABLE_POLYS,
    *(EnumerablePoly(str(g), g)
      for g in (poly(c0, c1, 1) for c0, c1 in [*_OTHER_QUADRATICS, (3, 0), (6, 0)])),
], ids=lambda f: f.name)
def test_fiber_of_zero_is_the_root(f):
    assert kernel_for(f).fiber(0) == {1}


@pytest.mark.parametrize("c0, c1", _OTHER_QUADRATICS)
def test_fiber_of_other_quadratics_matches_full_inverses_or_their_refusal(c0, c1):
    # These trees miss some pairs, e.g. (2, 0) of x^2 + 2; from n = 1 on the fiber
    # must refuse exactly where inverting every divisor in ascending order first
    # refuses (n = 0: test_fiber_of_zero_is_the_root).
    f = EnumerablePoly("f", poly(c0, c1, 1))
    kern = kernel_for(f)
    for n in range(1, 120):
        try:
            expected = {
                f_hat_inverse(f, make_pair(m, n, f)).index for m in divisors(abs(f.poly(n)))
            }
        except ArithmeticError as exc:
            with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
                kern.fiber(n)
        else:
            assert kern.fiber(n) == expected, n


@st.composite
def min_side_pairs(draw):
    """(f, p) for a pair p = (m, n) of f with n >= 1 and m * m < |f(n)|."""
    f = draw(st.sampled_from(ENUMERABLE_POLYS))
    n = draw(st.integers(min_value=1, max_value=3000))
    value = abs(f.poly(n))
    m = draw(st.sampled_from([d for d in trial_divisors(value) if d * d < value]))
    return f, make_pair(m, n, f)


@given(min_side_pairs())
def test_max_side_index_is_the_s_t_swap_of_the_min_side(fp):
    f, p = fp
    trace = f_hat_inverse(f, p)
    k = trace.index
    letters = k.bit_length() - 1
    assert k % 2 == 0 and trace.word.startswith("S")
    complement = f_hat_inverse(f, c_bar(p))
    assert complement.index == (3 << letters) - 1 - k
    assert complement.word == trace.word.translate(str.maketrans("ST", "TS"))


def test_fiber_sizes_match_divisor_count():
    for f in ENUMERABLE_POLYS:
        kern = kernel_for(f)
        for n in range(301):
            assert len(kern.fiber(n)) == trial_tau(abs(f.poly(n))), (f.name, n)


def test_primality_via_fiber_examples():
    k0 = kernel_for(PHI0)
    assert trial_is_prime(17)
    assert k0.is_f_prime_via_fiber(4)
    assert not trial_is_prime(50)
    assert not k0.is_f_prime_via_fiber(7)
    assert kernel_for(PHI1).is_f_prime_via_fiber(1)  # |f(1)| = 3


def test_primality_via_fiber_matches_trial_division():
    for f in ENUMERABLE_POLYS:
        kern = kernel_for(f)
        for n in range(1, 301):
            assert kern.is_f_prime_via_fiber(n) == trial_is_prime(abs(f.poly(n)))


def test_fiber_guards():
    with pytest.raises(ValueError):
        kernel_for(PHI0).fiber(-1)
    with pytest.raises(ValueError):
        kernel_for(PHI0).is_f_prime_via_fiber(0)


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
def test_kernel_for_builds_a_value_each_call(f):
    a, b = kernel_for(f), kernel_for(f)
    assert a is not b and a == b and hash(a) == hash(b)


def test_a_kernel_depends_on_its_polynomial_not_its_name():
    # a second polynomial named "phi0" gets phi1's sequence, asked before or after PHI0
    impostor = EnumerablePoly("phi0", poly(1, 1, 1))
    phi1_prefix = kernel_for(PHI1).s_prefix(15)
    for first, second in [(impostor, PHI0), (PHI0, impostor)]:
        prefixes = {f: kernel_for(f).s_prefix(15) for f in (first, second)}
        assert prefixes == {PHI0: ABSTRACT_PREFIX, impostor: phi1_prefix}
    assert phi1_prefix[:8] == [0, 1, 1, 2, 4, 4, 2, 3]


def test_kernel_is_safe_under_concurrent_readers():
    import threading

    kern = kernel_for(PHI1)
    expected = kern.s_prefix(4096)
    results = [None] * 8

    def worker(slot):
        results[slot] = [kern.s_value(k) for k in range(1, 4097)]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == expected for r in results)


def _boundary_counts(block):
    """Counts 1 .. 2**(block + 3) one off, at and one past each row start and each
    block start k = j * 2**block, where the blocks of a row of _rows begin."""
    top = 1 << (block + 3)
    starts = {1 << r for r in range(block + 4)} | set(range(2 << block, top + 1, 1 << block))
    return sorted({k + d for k in starts for d in (-1, 0, 1)} & set(range(1, top + 1)))


@pytest.mark.parametrize("depth", [1, 2, 3, 4, sseq._BLOCK_DEPTH])
@pytest.mark.parametrize("pairs", [False, True])
@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
def test_blocks_are_the_prefix_with_its_doubled_terms(monkeypatch, f, pairs, depth):
    # the rows of _rows, cut at each count as seq cuts them; a row deeper than the
    # block depth is filled block by block.  psi2's late seeds lie below index 8,
    # inside the first fill at any block depth; pair rows keep the block depth
    monkeypatch.setattr(sseq, "_BLOCK_DEPTH", depth)
    kern = kernel_for(f)
    counts = _boundary_counts(depth)
    s = [0, *kern.s_prefix(2 * counts[-1] + 1)]  # s[k] is s(k)
    for count in counts:
        k = 1
        for r, row in enumerate(kern._rows(count.bit_length() - 1, pairs)):
            values = list(islice(row, count + 1 - k))
            assert k == 1 << r and len(values) == min(k, count + 1 - k)  # one row, whole or cut
            ns = [n for _, n in values] if pairs else values
            assert ns == s[k : k + len(values)], (count, k)
            if pairs:  # the pair (s(2k) - s(k), s(k))
                assert [m + n for m, n in values] == s[2 * k : 2 * (k + len(values)) : 2]
            k += len(values)
        assert k == count + 1


@pytest.mark.parametrize("pairs", [False, True])
def test_held_rows_read_as_rows_read_in_turn(monkeypatch, pairs):
    # x^2 - 2 has d = 2 (start 4): past the head, at block depth 3, rows 4 and 5 both
    # start from row 2 but hold levels of 4 and 8 values, so a row held while
    # later rows are made must keep its own level
    monkeypatch.setattr(sseq, "_BLOCK_DEPTH", 3)
    kern = kernel_for(EnumerablePoly("x^2 - 2", poly(-2, 0, 1)))
    held = [list(row) for row in list(kern._rows(8, pairs))]
    assert held == [list(row) for row in kern._rows(8, pairs)]
    assert [len(row) for row in held] == [1 << r for r in range(9)]


# Monic quadratics other than the four trees, with d, the first n where
# 0 < f(n) < f(n + 1).  The seeds (0, 0, 1, 1), or psi2's for constant -1, would
# part from these trees at s(5), s(3), s(5), s(3) and s(5).
@pytest.mark.parametrize("p, d", [
    (poly(-1, 1, 1), 1), (poly(2, 0, 1), 0), (poly(-1, 4, 1), 1), (poly(5, -5, 1), 4),
    (poly(1, -8, 1), 8),
], ids=str)
def test_kernel_of_other_quadratics_matches_the_tree(p, d):
    f = EnumerablePoly("f", p)
    kern = kernel_for(f)
    flat = [q.n for row in tree_rows(f, 10) for q in row]
    assert kern.s_prefix(len(flat)) == flat
    assert (kern.start, kern.initial) == (1 << d, (0, *flat[: (4 << d) - 1]))
    # pair_at builds its node unchecked: each is the tree's, and a pair of f
    nodes = [node for row in int_tree_rows(f, 10) for node in row]
    for k, (m, n) in enumerate(nodes, start=1):
        assert kern.pair_at(k).components() == (m, n) and pair_in_df(f, m, n)


@pytest.mark.parametrize("p", [poly(-2000, 0, 1), poly(1, -36, 1), poly(1, -10**9, 1)], ids=str)
def test_kernel_refuses_seeds_past_the_node_budget(p):
    # d = 45, 72 and 10**9: rows 0..d + 1 exceed 2^21 nodes; d is searched to 22,
    # so the refusal names f and its seed rows 0..23
    message = f"{p}: seed row 23 needs 16777215 nodes, budget is 2097152"
    with pytest.raises(NodeBudgetExceeded, match=f"^{re.escape(message)}$"):
        kernel_for(EnumerablePoly("f", p))
