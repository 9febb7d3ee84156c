import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumtree import sseq
from enumtree.maps import (
    NodeBudgetExceeded,
    _index,
    _passes,
    check_tree_size,
    f_hat,
    f_hat_inverse,
    f_hat_via_action,
    int_tree_rows,
    phi_beta,
    psi_beta,
    relatives,
    tree_rows,
)
from enumtree.monoid import (
    GEN_S,
    GEN_T,
    IDENTITY,
    Mat2,
    complement,
    index_to_word,
    mat_mul,
    matrix_to_word,
    mirror_index,
    word_to_index,
    word_to_matrix,
)
from enumtree.pairs import (
    ENUMERABLE_POLYS,
    PHI0,
    PHI1,
    PHI3,
    PSI2,
    BadPair,
    EnumerablePoly,
    Poly,
    c_bar,
    make_pair,
    poly,
    s_bar,
    t_bar,
)
from enumtree.sseq import kernel_for
from oracles import trial_divisors, trial_tau

words = st.text(alphabet=st.sampled_from("ST"), max_size=40)

WORKED = Mat2(3, 4, 8, 11)  # SSTSST


def test_phi_beta_examples():
    assert phi_beta(0, WORKED).components() == (25, 68)
    assert phi_beta(1, WORKED).components() == (37, 100)
    assert phi_beta(3, WORKED).components() == (61, 164)
    assert phi_beta(0, IDENTITY).components() == (1, 0)


def test_psi_beta_examples():
    assert psi_beta(2, WORKED).components() == (31, 84)
    assert psi_beta(2, IDENTITY).components() == (1, 0)
    assert psi_beta(2, GEN_T).components() == (2, 1)


def test_psi_beta_meets_a_tie_only_at_the_identity():
    # ac == bd with ad - bc == 1 gives d(a^2 - b^2) = a, so b = c = 0 and a = d = 1;
    # psi_beta's max/min choices rest on it.  Every word of up to 12 letters, 8,191.
    row, ties = [IDENTITY], []
    for _ in range(13):
        ties += [x for x in row if x.a * x.c == x.b * x.d]
        row = [y for x in row for y in (mat_mul(GEN_S, x), mat_mul(GEN_T, x))]
    assert ties == [IDENTITY]


def test_f_hat_examples():
    assert f_hat(PHI0, word_to_matrix("TSS")).components() == (10, 7)
    assert f_hat(PHI1, word_to_matrix("SSTSST")).components() == (37, 100)
    assert f_hat(PSI2, IDENTITY).components() == (1, 0)


def test_relatives_worked_example():
    rel = relatives(WORKED)
    assert rel[PHI0].components() == (25, 68)
    assert rel[PHI1].components() == (37, 100)
    assert rel[PSI2].components() == (31, 84)
    assert rel[PHI3].components() == (61, 164)
    assert all(p.components() == (1, 0) for p in relatives(IDENTITY).values())


def test_relatives_of_complement_are_cofactors():
    rel = relatives(WORKED)
    co = relatives(complement(WORKED))
    assert co[PHI0].m == 185 and 25 * 185 == abs(PHI0.poly(68))
    assert co[PSI2].m == 233 and 31 * 233 == abs(PSI2.poly(84))
    assert co[PHI3].m == 449 and 61 * 449 == abs(PHI3.poly(164))
    for f in ENUMERABLE_POLYS:
        assert co[f].n == rel[f].n
        assert rel[f].m * co[f].m == abs(f.poly(rel[f].n))


@given(words, st.sampled_from(ENUMERABLE_POLYS))
def test_equivariance(w, f):
    a = word_to_matrix(w)
    assert f_hat(f, mat_mul(GEN_S, a)) == s_bar(f_hat(f, a))
    assert f_hat(f, complement(a)) == c_bar(f_hat(f, a))


def test_closed_form_agrees_with_replay_to_depth_14():
    # the matrix tree in heap order, built once for the four trees: node k has
    # children S*A at 2k and T*A at 2k + 1
    mats = [None, IDENTITY]
    for k in range(1, 1 << 14):
        mats += (mat_mul(GEN_S, mats[k]), mat_mul(GEN_T, mats[k]))
    for f in ENUMERABLE_POLYS:
        flat = [p for row in tree_rows(f, 14) for p in row]
        for k, p in enumerate(flat, start=1):
            assert f_hat(f, mats[k]) == p
        # spot check the explicit replay route on a sparse sample
        for k in range(1, 1 << 8):
            x = word_to_matrix(index_to_word(k))
            assert x == mats[k] and f_hat_via_action(f, x) == f_hat(f, x)


def test_inverse_worked_example():
    trace = f_hat_inverse(PHI1, make_pair(37, 100, PHI1))
    assert trace.word == "SSTSST"
    assert word_to_matrix(trace.word) == WORKED
    assert trace.index == 100
    assert [p.components() for p in trace.pairs] == [
        (37, 100),
        (37, 26),
        (19, 26),
        (19, 7),
        (3, 7),
        (3, 1),
        (1, 1),
        (1, 0),
    ]
    assert trace.exponents == (2, 1, 2, 1)


def _record_evaluations(monkeypatch) -> list[int]:
    seen: list[int] = []
    evaluate = Poly.__call__
    monkeypatch.setattr(Poly, "__call__", lambda f, n: seen.append(n) or evaluate(f, n))
    return seen


def test_inverse_evaluates_f_only_at_the_input_pair(monkeypatch):
    p = make_pair(37, 100, PHI1)
    seen = _record_evaluations(monkeypatch)
    f_hat_inverse(PHI1, p)
    assert seen == [100]


def test_int_tree_rows_evaluates_f_only_at_the_root(monkeypatch):
    seen = _record_evaluations(monkeypatch)
    rows = list(int_tree_rows(PHI1, 10))
    assert seen == [0] and len(rows[10]) == 1 << 10


def test_inverse_round_trip_on_20000_letter_words():
    for i, f in enumerate(ENUMERABLE_POLYS):
        word = index_to_word((1 << 20000) | random.Random(20000 + i).getrandbits(20000))
        trace = f_hat_inverse(f, f_hat(f, word_to_matrix(word)))
        assert trace.word == word and trace.index == word_to_index(word)


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
def test_peel_returns_the_exponents_and_chain_of_the_inverse(f):
    rng = random.Random(148)
    for _ in range(50):
        word = "".join(rng.choice("ST") for _ in range(rng.randint(0, 300)))
        p = f_hat(f, word_to_matrix(word))
        passes = list(_passes(f, p.m, p.n, f.poly(p.n) // p.m))
        trace = f_hat_inverse(f, p)
        assert (tuple(a for _, _, a in passes), trace.word) == (trace.exponents, word)
        assert _index(passes) == _index(iter(passes)) == trace.index == word_to_index(word)
        # the passes start at chain pairs, in chain order; each other chain pair is the
        # root or a pass's pair moved by s_bar_inv
        chain = [c.components() for c in trace.pairs]
        starts = [(m, n) for m, n, _ in passes]
        assert [pair for pair in chain if pair in set(starts)] == starts
        shifted = {(m, n - a * m) for m, n, a in passes}
        assert set(chain) - set(starts) <= shifted | {(1, 0)}
        assert chain[-1] == (1, 0) and all(a != b for a, b in zip(chain, chain[1:]))


def test_inverse_refuses_an_unreachable_pair():
    # (5, 3) is a pair of x^2 + 5x + 1 (f(3) = 25) below the min side of the bound
    f = EnumerablePoly("x^2+5x+1", poly(1, 5, 1))
    with pytest.raises(ArithmeticError, match=r"\(min side\)"):
        f_hat_inverse(f, make_pair(5, 3, f))


def test_inverse_keeps_the_sign_of_a_cofactor_through_c_bar():
    # x^2 - 3 is negative at n = 0 and 1: (2, 5) is shifted to (2, 1), of cofactor -1, and
    # c_bar takes it to (1, 1) of cofactor -2; the shift to (1, 0) then gives f(0) = -3,
    # and c_bar the pair (3, 0), which is past the bound.  A cofactor that lost its sign
    # at c_bar would give f(0) = 1 instead, and a wrong index at the root.
    f = EnumerablePoly("x^2-3", poly(-3, 0, 1))
    with pytest.raises(ArithmeticError, match=r"^pair \(3, 0\) of f = x\^2-3 .* \(min side\)"):
        f_hat_inverse(f, make_pair(2, 5, f))


def test_inverse_of_root_is_trivial():
    for f in ENUMERABLE_POLYS:
        trace = f_hat_inverse(f, make_pair(1, 0, f))
        assert trace.word == "" and trace.index == 1 and len(trace.pairs) == 1


def test_inverse_second_example_chain():
    trace = f_hat_inverse(PHI0, make_pair(113, 15, PHI0))
    assert [p.components() for p in trace.pairs] == [
        (113, 15),
        (2, 15),
        (2, 1),
        (1, 1),
        (1, 0),
    ]


def test_inverse_rejects_foreign_pairs():
    with pytest.raises(ValueError):
        f_hat_inverse(PHI0, make_pair(3, 1, PHI1))


@given(words, st.sampled_from(ENUMERABLE_POLYS))
def test_inverse_round_trip(w, f):
    a = word_to_matrix(w)
    trace = f_hat_inverse(f, f_hat(f, a))
    assert trace.word == matrix_to_word(a) == w
    assert trace.index == word_to_index(w)


@given(words, st.sampled_from(ENUMERABLE_POLYS))
@settings(max_examples=40)
def test_trace_replays_to_input(w, f):
    p = f_hat(f, word_to_matrix(w))
    trace = f_hat_inverse(f, p)
    assert trace.pairs[0] == p and trace.pairs[-1].components() == (1, 0)
    assert all(q == make_pair(q.m, q.n, f) for q in trace.pairs)  # checked construction
    replay = make_pair(1, 0, f)
    for letter in reversed(trace.word):
        replay = s_bar(replay) if letter == "S" else t_bar(replay)
    assert replay == p


def test_tree_rows_examples():
    rows = [[p.components() for p in row] for row in tree_rows(PHI0, 3)]
    assert rows[0] == [(1, 0)]
    assert rows[3] == [
        (1, 3),
        (10, 7),
        (5, 8),
        (13, 5),
        (2, 5),
        (13, 8),
        (5, 7),
        (10, 3),
    ]
    rows = [[p.components() for p in row] for row in tree_rows(PHI3, 1)]
    assert rows[1] == [(1, 1), (5, 1)]
    rows = [[p.components() for p in row] for row in tree_rows(PSI2, 2)]
    assert rows[2] == [(1, 2), (7, 3), (2, 3), (7, 2)]


def test_tree_rows_published_figures_row3():
    expected = {
        PHI1: [(1, 3), (13, 9), (7, 11), (19, 7), (3, 7), (19, 11), (7, 9), (13, 3)],
        PSI2: [(1, 3), (14, 9), (7, 10), (17, 5), (2, 5), (17, 10), (7, 9), (14, 3)],
        PHI3: [(1, 3), (19, 13), (11, 17), (31, 11), (5, 11), (31, 17), (11, 13), (19, 3)],
    }
    for f, row3 in expected.items():
        rows = [[p.components() for p in row] for row in tree_rows(f, 3)]
        assert rows[3] == row3


def test_tree_budget_enforced():
    with pytest.raises(NodeBudgetExceeded):
        tree_rows(PHI0, 10, max_nodes=100)
    # depth check happens before any row is produced
    ok = tree_rows(PHI0, 3, max_nodes=15)
    assert len(list(ok)) == 4


def _refuses(depth, max_nodes):
    try:
        check_tree_size(depth, max_nodes)
    except NodeBudgetExceeded:
        return True
    return False


def test_tree_size_rule_is_the_node_count():
    # decided by bit length, the rule refuses exactly when rows 0..depth exceed the budget
    budgets = [*range(1, 4097), *((1 << k) + e for k in range(129) for e in (-1, 0, 1))]
    for max_nodes in budgets:
        for depth in range(131):
            assert _refuses(depth, max_nodes) == ((1 << (depth + 1)) - 1 > max_nodes), (depth, max_nodes)


def test_tree_size_refusal_writes_a_count_past_64_bits_as_a_power():
    with pytest.raises(NodeBudgetExceeded, match=r"^depth 63 needs 18446744073709551615 nodes, budget is 7$"):
        check_tree_size(63, 7)
    with pytest.raises(NodeBudgetExceeded, match=r"^kmax 64 needs 2\^65 - 1 nodes, budget is 7$"):
        check_tree_size(64, 7, "kmax")
    with pytest.raises(ValueError, match=r"^bound must be an integer >= 0, got -1$"):
        check_tree_size(-1, 7, "bound")


@pytest.mark.parametrize("budget", [-5, -1, 2.0, 1e6])
def test_a_negative_or_non_integer_budget_is_refused(budget):
    # -5: by bit length alone, (-5 + 1).bit_length() = 3 would let rows 0..1 through
    message = f"^max_nodes must be an integer >= 0, got {budget!r}$"
    with pytest.raises(ValueError, match=message):
        check_tree_size(1, budget)
    with pytest.raises(ValueError, match=message):
        int_tree_rows(PHI0, 1, budget)


def test_tree_size_check_builds_no_integer_of_the_depths_size():
    tracemalloc.start()
    try:
        with pytest.raises(NodeBudgetExceeded):
            check_tree_size(3_000_000_000, 1 << 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


# Monic quadratics other than the four trees; each has f(n) < 0 at some n >= 1,
# and x^2 - 5x + 5 and x^2 - 8x + 1 have kernels starting at 16 and 256.
_OTHER_QUADRATICS = [poly(-1, 1, 1), poly(2, 0, 1), poly(-1, 4, 1), poly(5, -5, 1), poly(1, -8, 1)]
_TREES = (*ENUMERABLE_POLYS, *(EnumerablePoly("f", p) for p in _OTHER_QUADRATICS))


def test_int_tree_rows_are_the_tree_rows_components():
    # where f(n) < 0 a right child is c_bar's (|r|, n), r its signed cofactor;
    # x^2 - 8x + 1 has (6, 1) at index 3
    for f in _TREES:
        for ints, pairs in zip(int_tree_rows(f, 9), tree_rows(f, 9), strict=True):
            assert ints == [p.components() for p in pairs]
    assert list(int_tree_rows(_TREES[-1], 1))[1] == [(1, 1), (6, 1)]
    # both checks happen at the call, before any row is produced
    with pytest.raises(NodeBudgetExceeded):
        int_tree_rows(PHI0, 10, max_nodes=100)
    with pytest.raises(ValueError):
        int_tree_rows(PHI0, -1)


def _closed_form_misses(f, x):
    closed = psi_beta if f.poly(0) < 0 else phi_beta
    try:
        return closed(f.beta, x).components() != f_hat_via_action(f, x).components()
    except BadPair:  # a first component below 1
        return True


def test_f_hat_is_the_replay_or_refuses():
    # x^2 + b*x + c for |b| <= 8, |c| <= 25, without a root n >= 0: 783 trees.  The
    # closed forms hold for the 18 with c = +-1 and f(1) > 0; for any other c they
    # give pairs of x^2 + b*x +- 1, and for c = +-1 with f(1) <= 0 other components
    # or no pair at all.
    xs = [word_to_matrix(index_to_word(k)) for k in range(1, 256)]
    trees = covered = 0
    for b in range(-8, 9):
        for c in range(-25, 26):
            try:
                f = EnumerablePoly("f", poly(c, b, 1))
            except ValueError:
                continue
            trees += 1
            if abs(c) == 1 and f.poly(1) > 0:
                covered += 1
                assert all(f_hat(f, x) == f_hat_via_action(f, x) for x in xs), f
                continue
            with pytest.raises(ValueError, match="no closed form"):
                f_hat(f, IDENTITY)
            if abs(c) == 1:
                assert any(_closed_form_misses(f, x) for x in xs), f
    assert (trees, covered) == (783, 18)


@pytest.mark.parametrize("block", [1, 2, 3, sseq._BLOCK_DEPTH])
@pytest.mark.parametrize("depth", [0, 2, 13])
def test_streamed_rows_are_the_int_tree_rows(monkeypatch, block, depth):
    # the kernel's pair rows, which tree --format text prints; rows deeper than the
    # block depth are filled again below the nodes of an upper row, never below
    # a node before the kernel's start; psi2's root cofactor is -1
    monkeypatch.setattr(sseq, "_BLOCK_DEPTH", block)
    for f in _TREES:
        streamed = [list(row) for row in kernel_for(f)._rows(depth, True)]
        assert streamed == list(int_tree_rows(f, depth)), f.poly


def test_boundary_law():
    for f in ENUMERABLE_POLYS:
        for k, row in enumerate(tree_rows(f, 12)):
            assert row[0].components() == (1, k)
            assert row[-1].components() == (abs(f.poly(k)), k)


def test_row_symmetry_under_complement():
    for f in ENUMERABLE_POLYS:
        for row in tree_rows(f, 10):
            size = len(row)
            for j, p in enumerate(row):
                q = row[size - 1 - j]
                assert q.n == p.n
                assert q == c_bar(p)


def test_mirror_index_matches_complement_pairs():
    flat = [p for row in tree_rows(PHI0, 10) for p in row]
    for k, p in enumerate(flat, start=1):
        assert flat[mirror_index(k) - 1] == c_bar(p)


def test_injectivity_to_depth_16():
    for f in ENUMERABLE_POLYS:
        seen = set()
        for row in tree_rows(f, 16):
            for p in row:
                t = p.components()
                assert t not in seen
                seen.add(t)


def test_surjectivity_every_pair_hit_exactly_once():
    # n <= 200: each divisor pair inverts to a distinct index and replays back
    for f in ENUMERABLE_POLYS:
        for n in range(1, 201):
            value = abs(f.poly(n))
            divs = trial_divisors(value)
            indices = set()
            for m in divs:
                trace = f_hat_inverse(f, make_pair(m, n, f))
                indices.add(trace.index)
                assert f_hat(f, word_to_matrix(trace.word)).components() == (m, n)
            assert len(indices) == trial_tau(value)
