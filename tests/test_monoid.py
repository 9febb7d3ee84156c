import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from oracles import bfs_words

words = st.text(alphabet=st.sampled_from("ST"), max_size=64)


def test_generator_products():
    assert mat_mul(GEN_S, GEN_T) == Mat2(1, 1, 1, 2)
    assert mat_mul(IDENTITY, Mat2(3, 4, 8, 11)) == Mat2(3, 4, 8, 11)
    assert word_to_matrix("SSTSST") == Mat2(3, 4, 8, 11)


def test_mat2_invariants_enforced():
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)  # det 2
    with pytest.raises(ValueError):
        Mat2(1, 2, 1, 1)  # det -1
    for entries in ((1, -1, 0, 1), (2, 0.5, 2, 1), (1.0, 0, 0, 1)):  # det 1, entry refused
        with pytest.raises(ValueError, match="is not an integer >= 0"):
            Mat2(*entries)


def test_complement_examples():
    assert complement(Mat2(3, 4, 8, 11)) == Mat2(11, 8, 4, 3)
    assert complement(IDENTITY) == IDENTITY
    assert complement(GEN_S) == GEN_T


@given(words)
def test_complement_involution(w):
    x = word_to_matrix(w)
    assert complement(complement(x)) == x


@given(st.tuples(words, words))
def test_complement_is_multiplicative(pair):
    a, b = map(word_to_matrix, pair)
    assert complement(mat_mul(a, b)) == mat_mul(complement(a), complement(b))


@given(words)
def test_left_t_factor_via_complement(w):
    a = word_to_matrix(w)
    assert mat_mul(GEN_T, a) == complement(mat_mul(GEN_S, complement(a)))


def test_word_matrix_examples():
    assert word_to_matrix("TSS") == Mat2(3, 1, 2, 1)
    assert word_to_matrix("") == IDENTITY
    assert matrix_to_word(Mat2(3, 1, 2, 1)) == "TSS"
    assert matrix_to_word(IDENTITY) == ""


@given(words)
def test_word_round_trip(w):
    assert matrix_to_word(word_to_matrix(w)) == w


def _generator_product(word: str) -> Mat2:
    out = IDENTITY
    for letter in reversed(word):
        out = mat_mul(GEN_S if letter == "S" else GEN_T, out)
    return out


def test_word_to_matrix_is_the_product_of_its_generators():
    for k in range(1, 1 << 13):  # every word of up to 12 letters
        w = index_to_word(k)
        assert word_to_matrix(w) == _generator_product(w), w
    rng = random.Random(2000)
    for _ in range(5):
        w = "".join(rng.choice("ST") for _ in range(2000))
        assert word_to_matrix(w) == _generator_product(w)
    for bad in ("SX", "s", "T T", "0"):
        with pytest.raises(ValueError, match="word may only contain 'S' and 'T'"):
            word_to_matrix(bad)


def test_matrix_to_word_strips_every_small_element():
    # one row dominates at every step, so the plain else of matrix_to_word
    # never takes a wrong T: every element with entries up to 12 round-trips
    small = range(13)
    for a, b, c, d in product(small, repeat=4):
        if a * d - b * c == 1:
            x = Mat2(a, b, c, d)
            assert word_to_matrix(matrix_to_word(x)) == x


def _strips_s(x: Mat2) -> bool:
    return x.c >= x.a and x.d >= x.b


@given(words.filter(lambda w: w != ""))
def test_unique_leading_factor_trichotomy(w):
    x = word_to_matrix(w)
    assert _strips_s(x) != _strips_s(complement(x))


def test_index_examples():
    assert word_to_index("") == 1
    assert word_to_index("TSS") == 9
    assert word_to_index("SSTSST") == 100
    assert index_to_word(1) == ""
    assert index_to_word(9) == "TSS"
    assert index_to_word(100) == "SSTSST"


def test_index_against_breadth_first_enumeration():
    for position, w in enumerate(bfs_words(12), start=1):
        assert word_to_index(w) == position
        assert index_to_word(position) == w


@given(words)
def test_index_round_trip(w):
    assert index_to_word(word_to_index(w)) == w


@given(st.integers(min_value=1, max_value=2**40))
def test_index_round_trip_from_int(k):
    assert word_to_index(index_to_word(k)) == k


def test_index_round_trip_on_deep_indices():
    rng = random.Random(2000)
    for _ in range(20):
        k = rng.getrandbits(2000) | (1 << 2000)
        word = index_to_word(k)
        assert len(word) == 2000
        assert word_to_index(word) == k


def test_index_round_trip_on_long_words():
    rng = random.Random(80000)
    word = "".join(rng.choice("ST") for _ in range(80000))
    k = word_to_index(word)
    assert k.bit_length() == 80001
    assert index_to_word(k) == word


def test_index_validation():
    with pytest.raises(ValueError):
        index_to_word(0)
    with pytest.raises(ValueError):
        word_to_index("ST1")
    with pytest.raises(ValueError):
        word_to_matrix("SXT")


@given(words)
def test_determinant_preserved(w):
    x = word_to_matrix(w)
    assert x.a * x.d - x.b * x.c == 1
    assert Mat2(x.a, x.b, x.c, x.d) == x  # the checked constructor accepts the product


@given(words)
def test_complement_mirrors_tree_index(w):
    x = word_to_matrix(w)
    k = word_to_index(w)
    assert word_to_index(matrix_to_word(complement(x))) == mirror_index(k)


def test_mirror_index_is_same_row_involution():
    for k in range(1, 1 << 10):
        mk = mirror_index(k)
        assert mk.bit_length() == k.bit_length()
        assert mirror_index(mk) == k
