"""Work counts of the streamed and reducing paths, pinned exactly.

Wall time cannot be asserted on a shared host; call counts can.  Each guard
patches the module-level helper a path calls, as the benchmark's tracer does,
and pins the count recorded before the code it covers changed.  A count that
grows with the input also gets a bound on its growth, derived from the code.
"""

import random
import sys

import pytest

from enumtree import analytics, cli, maps, monoid, sseq
from enumtree.cli import _SUITES
from enumtree.maps import f_hat, f_hat_inverse, int_tree_rows
from enumtree.monoid import word_to_index, word_to_matrix
from enumtree.pairs import ENUMERABLE_POLYS, Poly
from enumtree.sseq import kernel_for, vector_tree_rows
from oracles import trial_tau

_BY_NAME = {f.name: f for f in ENUMERABLE_POLYS}


def suite_failures(suite, bound):
    """The failure lines a verify suite yields, without the counts it yields beside them."""
    return [item for item in _SUITES[suite][0](bound) if isinstance(item, str)]


def _counting(monkeypatch, module, name):
    """Wrap module.name in a call counter; returns the one-slot count list."""
    calls, inner = [0], getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


# net_expand calls of _rows(d, pairs) read in full at block depth 6, at d = 10 and 11:
# a head fill of slots to 2**7 - 1 (31 calls from slot 1, 30 from psi2's start 2) and,
# per row r past 6, 2**t blocks (t = r - 6) of a t-digit top walk (t - 1 for psi2) and a
# 31-call fill.  Pair rows take m from the s levels they hold, so they fill no more.
_ROWS_CALLS = {
    ("phi0", False): (1059, 2211), ("phi0", True): (1059, 2211),
    ("phi1", False): (1059, 2211), ("phi1", True): (1059, 2211),
    ("psi2", False): (1028, 2148), ("psi2", True): (1028, 2148),
    ("phi3", False): (1059, 2211), ("phi3", True): (1059, 2211),
}


@pytest.mark.parametrize("name, pairs", list(_ROWS_CALLS))
def test_streamed_rows_expand_a_pinned_number_of_nodes(monkeypatch, name, pairs):
    block = 6
    monkeypatch.setattr(sseq, "_BLOCK_DEPTH", block)
    kern = kernel_for(_BY_NAME[name])
    calls = _counting(monkeypatch, sseq, "net_expand")
    counts = []
    for depth in (10, 11):
        calls[0] = 0
        for row in kern._rows(depth, pairs):
            for _ in row:
                pass
        counts.append(calls[0])
    head = ((1 << (block + 1)) - 1) // 4 - kern.start + 1
    fill = (1 << (block - 1)) - 1
    walk = kern.start.bit_length() - 1  # the top's digits read off the seeds
    deep = sum((1 << t) * (t - walk + fill) for t in range(1, 10 - block + 1))
    assert counts[0] == head + deep
    assert tuple(counts) == _ROWS_CALLS[name, pairs]
    # Past the head, row r is 2**t blocks (t = r - c, c = block), each a top walk of at
    # most t digits and a fill of 2**(block - 1) - 1 calls.  Row d + 1 thus costs twice
    # row d plus one call per block top: the total at most doubles, plus 2**(d + 2 - c)
    # calls and one fill.
    assert counts[1] <= 2 * counts[0] + (1 << (12 - block)) + fill


# index_to_word calls of _json_lines for rows 0 .. row - 1 empty and the first `pairs` nodes
# of row `row`: one per line above row 10, the word table's depth; row 10 makes its 2**10
# words at once, empty or cut; past it the table is row 10's and a block of 2**10 lines
# reached makes one word, so a full row makes 2**(row - 10) in place of 2**row
@pytest.mark.parametrize("row, pairs, words", [
    (0, 1, 1), (3, 8, 8), (10, 1024, 1024), (10, 3, 1024),
    (11, 2048, 1026), (13, 8192, 1032), (12, 1024, 1025), (12, 1025, 1026), (60, 1, 1025),
])
def test_json_lines_make_a_word_per_block_past_the_table_depth(monkeypatch, row, pairs, words):
    calls = _counting(monkeypatch, cli, "index_to_word")
    assert sum(1 for _ in cli._json_lines([[]] * row + [[(1, 0)] * pairs])) == pairs
    assert calls[0] == words


# index_to_word calls of one command: a word per line of rows 0 .. min(R, 10), row 10's
# being the table, and one per block of 2**10 lines reached in each deeper row.  A tree to
# depth 14 makes 2047 + 2 + 4 + 8 + 16; a seq to count 3000 ends in row 11's first block,
# 2047 + 1, and one to 2**14 - 1 in row 13, 2047 + 2 + 4 + 8.
@pytest.mark.parametrize("argv, lines, words", [
    ("tree phi0 --depth 2", 7, 7),
    ("tree phi0 --depth 14", 2**15 - 1, 2077),
    ("seq phi0 --count 3000 --format json", 3000, 2048),
    ("seq psi2 --count 16383 --format json", 16383, 2061),
])
def test_a_command_makes_one_word_table(monkeypatch, capsys, argv, lines, words):
    calls = _counting(monkeypatch, cli, "index_to_word")
    assert cli.main(argv.split()) == 0
    assert len(capsys.readouterr().out.splitlines()) == lines
    assert calls[0] == words


@pytest.mark.parametrize("argv, writes", [
    ("seq phi0 --count 100000 --format bfile", 73), ("tree psi2 --depth 12", 31),
])
def test_a_streamed_output_makes_one_write_per_chunk(monkeypatch, capsys, argv, writes):
    # _write: a write holds 1 + _WRITE_BYTES // (len(first) + 1) lines, first the
    # line it starts with, and the last write whatever is left; no line spans two writes
    texts = []
    monkeypatch.setattr(sys.stdout, "write", texts.append)
    assert cli.main(argv.split()) == 0
    lines, chunks = "".join(texts).splitlines(), []
    while sum(chunks) < len(lines):
        per_write = 1 + cli._WRITE_BYTES // (len(lines[sum(chunks)]) + 1)
        chunks.append(min(per_write, len(lines) - sum(chunks)))
    assert [text.count("\n") for text in texts] == chunks
    assert len(chunks) == writes
    assert all(text.endswith("\n") for text in texts)


@pytest.mark.parametrize("row, pair, converted", [
    (52, (2**53 - 1, 2**53 - 1), 0), (53, (1, 0), 3), (1, (2**53, 0), 3), (1, (0, 2**53), 3),
])
def test_json_lines_convert_only_lines_with_a_value_past_2_53(monkeypatch, row, pair, converted):
    # index, m and n of a line go through _json_int together, and only when one of them
    # is past 2^53 - 1: every index from row 53 on, or an m or n above the bound
    calls = _counting(monkeypatch, cli, "_json_int")
    (line,) = cli._json_lines([[]] * row + [[pair]])
    assert calls[0] == converted


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
def test_s_prefix_expands_one_node_per_four_terms(monkeypatch, f):
    kern = kernel_for(f)
    calls = _counting(monkeypatch, sseq, "net_expand")
    kern.s_prefix(1000)
    # slots 4k .. 4k + 3 for k = start .. 250; the seeds fill the slots below 4 * start
    assert calls[0] == 1000 // 4 - kern.start + 1 == (249 if f.name == "psi2" else 250)


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
@pytest.mark.parametrize("seeded", [True, False], ids=["seeds", "top"])
def test_fill_continues_the_list_it_is_given(monkeypatch, f, seeded):
    # _fill starts at node len(vals) // 4, the first not yet expanded: a list filled to
    # slot a and then on to b is the list filled to b at once, and the second call expands
    # nodes a // 4 + 1 .. b // 4 alone (a lies past the seeds' 4 * start slots)
    kern, (a, b) = kernel_for(f), (37, 301)

    def fresh():
        return [*kern.initial] if seeded else [0, *kern._triple(3 * kern.start)]

    whole, part = kern._fill(b, fresh()), kern._fill(a, fresh())
    calls = _counting(monkeypatch, sseq, "net_expand")
    assert kern._fill(b, part) is part
    assert part == whole and calls[0] == b // 4 - a // 4 == 66


def test_vector_tree_rows_expand_one_fill(monkeypatch):
    calls = _counting(monkeypatch, sseq, "net_expand")
    rows = list(vector_tree_rows(10))
    assert len(rows[10]) == 1 << 10
    # rows 0..11 of s come from one fill of 2**12 - 1 slots, below the block depth
    assert calls[0] == ((1 << 12) - 1) // 4 == 1023


def test_vector_tree_rows_past_the_block_depth_refill_their_rows(monkeypatch):
    # vector_tree_rows(d) reads s rows 0..d + 1 of _rows, so a row past the block depth
    # is filled again from its tops.  At block depth 6, depth 10 reads rows to 11: a head
    # of 31 calls and, per row 6 + t, 2**t blocks of a t-digit top walk and a 31-call
    # fill; a walk of one net_expand per node would make 2**10 - 1 = 1023
    monkeypatch.setattr(sseq, "_BLOCK_DEPTH", 6)
    calls = _counting(monkeypatch, sseq, "net_expand")
    assert len(list(vector_tree_rows(10))) == 11
    assert calls[0] == 31 + sum((1 << t) * (t + 31) for t in range(1, 6)) == 2211


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
@pytest.mark.parametrize("depth", [0, 1, 5, 12])
def test_int_tree_rows_shift_two_cofactors_per_parent(monkeypatch, f, depth):
    # _int_rows: each of the 2**depth - 1 nodes of rows 0 .. depth - 1 makes its two
    # children's cofactors by one _shifted_cofactor each
    calls = _counting(monkeypatch, maps, "_shifted_cofactor")
    assert sum(len(row) for row in int_tree_rows(f, depth)) == (2 << depth) - 1
    assert calls[0] == 2 * ((1 << depth) - 1)


@pytest.mark.parametrize("f", ENUMERABLE_POLYS, ids=lambda f: f.name)
def test_inverse_encodes_its_reduction_once(monkeypatch, f):
    # the one peel gives the index, and the index the word: no word is built from the
    # exponents and parsed back into the index
    rng = random.Random(400 + ENUMERABLE_POLYS.index(f))
    word = "".join(rng.choice("ST") for _ in range(300))
    p, index = f_hat(f, word_to_matrix(word)), word_to_index(word)
    encodes = _counting(monkeypatch, maps, "_peel")
    parses = _counting(monkeypatch, monoid, "word_to_index")
    trace = f_hat_inverse(f, p)
    assert (trace.word, trace.index) == (word, index)
    assert (encodes[0], parses[0]) == (1, 0) and not hasattr(maps, "word_to_index")


@pytest.mark.parametrize("name, steps", [("phi0", 143), ("phi1", 159), ("psi2", 156), ("phi3", 159)])
def test_inverse_checks_each_peel_step_once(monkeypatch, name, steps):
    f = _BY_NAME[name]
    rng = random.Random(300 + ENUMERABLE_POLYS.index(f))
    p = f_hat(f, word_to_matrix("".join(rng.choice("ST") for _ in range(300))))
    calls = _counting(monkeypatch, maps, "_violation")
    trace = f_hat_inverse(f, p)
    assert calls[0] == len(trace.exponents) == steps


@pytest.mark.parametrize(
    "name, distinct, gcds",
    [("phi0", 465, 1385), ("phi1", 469, 1395), ("psi2", 471, 1399), ("phi3", 487, 1447)],
)
def test_row_stats_merges_one_term_per_distinct_m(monkeypatch, name, distinct, gcds):
    f = _BY_NAME[name]
    # row 10 streamed in blocks, as stats reads a row past the block depth
    monkeypatch.setattr(sseq, "_BLOCK_DEPTH", 6)
    *_, row = kernel_for(f)._rows(10, True)
    assert len({m for m, _ in list(int_tree_rows(f, 10))[10]}) == distinct
    calls = _counting(monkeypatch, analytics, "gcd")
    analytics.row_stats(10, row)
    # one gcd per distinct m, two per merge: distinct - popcount(distinct) merges
    assert calls[0] == distinct + 2 * (distinct - bin(distinct).count("1")) == gcds


def test_verify_recursions_makes_no_digit_walk_below_the_block_depth(monkeypatch):
    # bounds to 14 are read from one fill of s (pair rows take c = _BLOCK_DEPTH, as s rows
    # do); a walk per node, as pair_at makes, would be 2**(bound + 1) - 1 calls per tree
    calls = _counting(monkeypatch, sseq.SSeqKernel, "_triple")
    for bound in range(sseq._BLOCK_DEPTH + 1):
        assert suite_failures("recursions", bound) == []
        assert calls[0] == 0, bound


def test_verify_recursions_holds_one_list_of_s(monkeypatch):
    # _fill expands nodes len(vals) // 4 .. stop // 4, so a list it returns holds
    # max(len(vals), 4 * (stop // 4 + 1)) slots.  Per tree: the pair rows' one list, from
    # the seeds' 4 * start slots, extended at row r to stop 2**(r + 1) - 1, so to
    # max(4 * start, 2**(r + 1)) slots; then one fill of s for the four branches, from
    # the seeds to stop 4 * 2**bound + 4, so 4 * 2**bound + 8 slots; s_prefix makes no copy
    fills, fill = [], sseq.SSeqKernel._fill

    def recorded(self, stop, vals):
        vals = fill(self, stop, vals)
        fills.append(len(vals))
        return vals

    monkeypatch.setattr(sseq.SSeqKernel, "_fill", recorded)
    monkeypatch.setattr(sseq.SSeqKernel, "s_prefix", None)
    bound = 9
    assert suite_failures("recursions", bound) == []
    expected = {
        f.name: [*(max(4 * kernel_for(f).start, 2 << r) for r in range(bound + 1)), 4 * (1 << bound) + 8]
        for f in ENUMERABLE_POLYS
    }
    assert fills == [n for f in ENUMERABLE_POLYS for n in expected[f.name]]
    assert expected["phi0"][:4] == [4, 4, 8, 16] and expected["psi2"][:4] == [8, 8, 8, 16]
    assert expected["phi0"][-2:] == expected["psi2"][-2:] == [1024, 4 * 2**9 + 8]


def test_verify_bijectivity_walks_once_per_divisor(monkeypatch):
    # one round trip from each inverted index back to its pair, tau(|f(n)|) per n
    bound = 40
    calls = _counting(monkeypatch, sseq.SSeqKernel, "_triple")
    assert suite_failures("bijectivity", bound) == []
    expected = sum(trial_tau(abs(f.poly(n))) for f in ENUMERABLE_POLYS for n in range(1, bound + 1))
    assert calls[0] == expected == 592


def test_pair_at_evaluates_no_polynomial(monkeypatch):
    # node k is built from the digit walk's triple alone; verify checks it, not pair_at
    kernels = [kernel_for(f) for f in ENUMERABLE_POLYS]
    calls = _counting(monkeypatch, Poly, "__call__")
    for kern in kernels:
        for k in [1, 2, 3, 5, 9, 1000, 2**70 + 1]:
            kern.pair_at(k)
    assert calls[0] == 0


def test_roots_mod_2_takes_no_square_root(monkeypatch):
    # p = 2 is scanned, so no Tonelli-Shanks call is made and thrown away
    calls = _counting(monkeypatch, analytics, "sqrt_mod")
    assert [analytics.roots_mod_p(f, 2) for f in ENUMERABLE_POLYS] == [[1], [], [1], []]
    assert calls[0] == 0
    assert analytics.roots_mod_p(ENUMERABLE_POLYS[0], 5) == [2, 3] and calls[0] == 1
