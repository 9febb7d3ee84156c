"""Exact arithmetic in the monoid of nonnegative 2x2 integer matrices with determinant 1.

The monoid is freely generated by

    GEN_S = [[1, 0], [1, 1]]        GEN_T = [[1, 1], [0, 1]]

so every element has a unique name as a word over the letters 'S' and 'T'.
Words multiply right to left: in "TSS" the rightmost 'S' is the first factor
applied and the leading 'T' the last, i.e. "TSS" is the matrix T*S*S.

Elements also live on a binary tree rooted at the identity, with left child
A -> S*A and right child A -> T*A, indexed heap style: root 1, children of k
at 2k (S step) and 2k+1 (T step).  The rightmost letter of a word is the
first step down from the root.

All values are immutable; entries are integers of arbitrary precision.
"""

from ._record import Record, at_least

__all__ = [
    "Mat2",
    "GEN_S",
    "GEN_T",
    "IDENTITY",
    "mat_mul",
    "complement",
    "word_to_matrix",
    "matrix_to_word",
    "word_to_index",
    "index_to_word",
    "mirror_index",
]


class Mat2(Record):
    """Row-major [[a, b], [c, d]] with a*d - b*c == 1 and integer entries >= 0."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        super().__init__(a, b, c, d)  # bound first: the messages below print self
        if not all(isinstance(v, int) and v >= 0 for v in (a, b, c, d)):
            raise ValueError(f"entry of {self!r} is not an integer >= 0")
        if a * d - b * c != 1:
            raise ValueError(f"determinant of {self!r} is not 1")

    def __mul__(self, other: "Mat2") -> "Mat2":
        return mat_mul(self, other)

    def __str__(self) -> str:
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


GEN_S = Mat2(1, 0, 1, 1)
GEN_T = Mat2(1, 1, 0, 1)
IDENTITY = Mat2(1, 0, 0, 1)

_DIGIT_LETTERS = str.maketrans("01", "ST")
_LETTER_DIGITS = str.maketrans("ST", "01")


def mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return Mat2(x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
                x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d)


def complement(x: Mat2) -> Mat2:
    """The involution [[a, b], [c, d]] -> [[d, c], [b, a]].

    Swaps the two generators, so it mirrors the enumeration tree left-right.
    """
    return Mat2(x.d, x.c, x.b, x.a)


def _check_word(word: str) -> None:
    bad = set(word) - {"S", "T"}
    if bad:
        raise ValueError(f"word may only contain 'S' and 'T', got {sorted(bad)}")


def word_to_matrix(word: str) -> Mat2:
    """Product of the generators named by word (rightmost letter applied first), one Mat2."""
    _check_word(word)
    a, b, c, d = 1, 0, 0, 1
    for letter in reversed(word):
        if letter == "S":
            c, d = c + a, d + b  # S*A adds A's top row to its bottom row
        else:
            a, b = a + c, b + d  # T*A adds A's bottom row to its top row
    return Mat2(a, b, c, d)


def matrix_to_word(x: Mat2) -> str:
    """The unique generator word for x; inverse of word_to_matrix.

    Strips the leading factor greedily: x = S*B exactly when the bottom row
    dominates the top row componentwise, otherwise x = T*B: one row of an element
    other than I dominates the other, as a > c with d > b forces b = c = 0 (x = I)
    and a < c with b > d makes ad - bc negative.  The entry sum drops strictly
    each step, so this terminates.
    """
    letters: list[str] = []
    a, b, c, d = x.a, x.b, x.c, x.d
    while (a, b, c, d) != (1, 0, 0, 1):
        if c >= a and d >= b:
            letters.append("S")
            c -= a
            d -= b
        else:
            letters.append("T")
            a -= c
            b -= d
    return "".join(letters)


def word_to_index(word: str) -> int:
    """Heap index of the tree node named by word (root is 1)."""
    _check_word(word)
    return int("1" + word[::-1].translate(_LETTER_DIGITS), 2)


def index_to_word(k: int) -> str:
    """Generator word of the node at heap index k >= 1; inverse of word_to_index.

    The binary digits of k after the leading 1, most significant first, give
    the path from the root; each step prepends its letter to the word, so the
    word is those digits reversed, 0 -> 'S' and 1 -> 'T'.
    """
    at_least("index", k, 1)
    return bin(k)[:2:-1].translate(_DIGIT_LETTERS)


def mirror_index(k: int) -> int:
    """Index of the horizontally mirrored node in the same tree row.

    Complementing a matrix lands on the mirrored node.
    """
    at_least("index", k, 1)
    row = k.bit_length() - 1
    return (3 << row) - 1 - k
