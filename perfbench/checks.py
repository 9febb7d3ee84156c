"""Output checks for every benchmark operation.

Each checker gets the operation (argv, ``expect``) and the complete stdout of
one invocation and returns ``(error, items)``: ``error`` is None when the
output is right and otherwise says what is wrong; ``items`` is the count of
result items the operation delivered.  The checks use only ``oracle`` and
run after the operation's timed region has ended.
"""

import json
import re
from fractions import Fraction

from . import oracle


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check(op: dict, out: bytes) -> tuple[str | None, int]:
    """Check one operation's stdout; return (error or None, items delivered)."""
    try:
        text = out.decode("utf-8")
        items = _CHECKERS[op["kind"]](op["expect"], text)
    except (CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"[:300], 0
    return None, op["items"] if items is None else items


def _lines(text: str) -> list[str]:
    _require(text.endswith("\n"), "output does not end with a newline")
    return text[:-1].split("\n")


def _jint(v) -> int:
    # Integers above 2^53 - 1 arrive as decimal strings, smaller ones as numbers.
    if isinstance(v, str):
        value = int(v)
        _require(abs(value) > oracle.SAFE_INT, f"small integer {v!r} quoted")
        return value
    _require(isinstance(v, int) and abs(v) <= oracle.SAFE_INT, f"bad JSON integer {v!r}")
    return v


# ----------------------------------------------------------------------
# stream
# ----------------------------------------------------------------------


def _check_pair_record(rec: dict, index: int, poly: str, s: list[int]) -> None:
    _require(list(rec) == ["index", "m", "n", "word", "row"], f"keys {list(rec)}")
    _require(_jint(rec["index"]) == index, f"index {rec['index']} where {index} was due")
    m, n = _jint(rec["m"]), _jint(rec["n"])
    _require(m >= 1 and n >= 0, f"pair ({m}, {n}) out of range at index {index}")
    _require(oracle.absf(poly, n) % m == 0, f"{m} does not divide |f({n})|")
    _require(rec["word"] == oracle.index_to_word(index), f"word {rec['word']!r} at index {index}")
    _require(rec["row"] == index.bit_length() - 1, f"row {rec['row']} at index {index}")
    _require((m, n) == (s[2 * index] - s[index], s[index]), f"pair ({m}, {n}) at index {index}")


def _tree(expect: dict, text: str) -> None:
    poly, depth = expect["poly"], expect["depth"]
    s = oracle.s_prefix(poly, 1 << (depth + 2))
    lines = _lines(text)
    if expect["format"] == "json":
        _require(len(lines) == (1 << (depth + 1)) - 1, f"{len(lines)} lines for depth {depth}")
        for index, line in enumerate(lines, start=1):
            _check_pair_record(json.loads(line), index, poly, s)
        return
    _require(len(lines) == depth + 1, f"{len(lines)} rows for depth {depth}")
    for row, line in enumerate(lines):
        indent = "  " * row
        _require(line.startswith(indent) and line[len(indent) : len(indent) + 1] == "(",
                 f"row {row} indented wrongly")
        cells = line[len(indent) :].split("  ")
        _require(len(cells) == 1 << row, f"row {row} has {len(cells)} pairs")
        for index, cell in enumerate(cells, start=1 << row):
            m_text, n_text = cell[1:-1].split(", ")
            m, n = int(m_text), int(n_text)
            _require(cell == f"({m}, {n})", f"malformed pair {cell!r}")
            _require(m >= 1 and oracle.absf(poly, n) % m == 0, f"{m} does not divide |f({n})|")
            _require((m, n) == (s[2 * index] - s[index], s[index]),
                     f"pair ({m}, {n}) at index {index}")


def _seq(expect: dict, text: str) -> None:
    poly, count = expect["poly"], expect["count"]
    lines = _lines(text)
    _require(len(lines) == count, f"{len(lines)} terms for count {count}")
    if expect["format"] == "bfile":
        s = oracle.s_prefix(poly, count)
        for k, line in enumerate(lines, start=1):
            _require(line == f"{k} {s[k]}", f"term line {line!r} where s({k}) = {s[k]}")
        return
    s = oracle.s_prefix(poly, 2 * count + 1)
    for k, line in enumerate(lines, start=1):
        _check_pair_record(json.loads(line), k, poly, s)


# ----------------------------------------------------------------------
# query
# ----------------------------------------------------------------------

_PAIR = re.compile(r"\((\d+), (\d+)\)")


def _labelled(lines: list[str], labels: list[str]) -> dict[str, str]:
    _require(len(lines) == len(labels), f"{len(lines)} lines where {len(labels)} were due")
    out = {}
    for line, label in zip(lines, labels):
        head, sep, rest = line.partition(": ")
        _require(sep and head == label, f"line {line[:60]!r} where {label!r} was due")
        out[label] = rest
    return out


def _inverse(expect: dict, text: str) -> None:
    poly, word = expect["poly"], expect["word"]
    got = _labelled(_lines(text), ["pair", "word", "matrix", "index", "chain"])
    _require(got["pair"] == f"({expect['m']}, {expect['n']})", "pair line differs from input")
    _require(got["word"] == (word or "(empty)"), "word differs from the generating word")
    a, b, c, d = oracle.word_to_matrix(word)
    _require(got["matrix"] == f"[[{a}, {b}], [{c}, {d}]]", "matrix is not the word's product")
    _require(int(got["index"]) == oracle.word_to_index(word), "index does not match the word")
    chain = [(int(m), int(n)) for m, n in _PAIR.findall(got["chain"])]
    _require(" ".join(f"({m}, {n})" for m, n in chain) == got["chain"], "malformed chain")
    _require(chain[0] == (expect["m"], expect["n"]) and chain[-1] == (1, 0),
             "chain does not run from the input to (1, 0)")
    for m, n in chain:
        _require(oracle.absf(poly, n) % m == 0, f"chain pair ({m}, {n}) is not a divisor pair")


def _fiber(expect: dict, text: str) -> None:
    poly, n = expect["poly"], expect["n"]
    labels = ["n", "|f(n)|", "tau", "indices"] + (["verdict"] if n >= 1 else [])
    got = _labelled(_lines(text), labels)
    value = oracle.absf(poly, n)
    _require(got["n"] == str(n) and got["|f(n)|"] == str(value), "n or |f(n)| misprinted")
    tau = oracle.tau_trial(value)
    _require(got["tau"] == str(tau), f"tau {got['tau']} where trial division gives {tau}")
    indices = [int(i) for i in got["indices"].split(" ")]
    _require(len(indices) == tau and indices == sorted(set(indices)), "index list wrong size")
    if n >= 1:
        _require({1 << n, (1 << (n + 1)) - 1} <= set(indices), "boundary indices missing")
        verdict = "prime" if oracle.is_prime_trial(value) else "composite"
        _require(got["verdict"] == verdict, f"verdict {got['verdict']} where {verdict} is due")


def _primerep(expect: dict, text: str) -> None:
    poly, p, n = expect["poly"], expect["p"], expect["n"]
    got = _labelled(_lines(text), ["p", "n-values", "form", "value"])
    _require(got["p"] == str(p), "p misprinted")
    ns = [int(v) for v in got["n-values"].split(" ")]
    _require(ns == sorted(set(ns)) and ns[-1] == n and ns[-1] < p, "n-values not increasing to n")
    signs = [(-1) ** (len(ns) - 1 - i) for i in range(len(ns))]
    form = " * ".join(f"|f({v})|^{e:+d}" for v, e in zip(ns, signs))
    _require(got["form"] == f"p = {form}", "form line is not the alternating product")
    num = [oracle.absf(poly, v) for v, e in zip(ns, signs) if e > 0]
    den = [oracle.absf(poly, v) for v, e in zip(ns, signs) if e < 0]
    shown = " * ".join(map(str, num)) + (" / (" + " * ".join(map(str, den)) + ")" if den else "")
    _require(got["value"] == f"{p} = {shown}", "value line does not match |f(n_i)|")
    product = Fraction(1)
    for v in num:
        product *= v
    for v in den:
        product /= v
    _require(product == p, f"alternating product is {product}, not {p}")


def _scan(expect: dict, text: str) -> None:
    coeffs, nmax = tuple(expect["coeffs"]), expect["nmax"]
    due = []
    for n in range(nmax + 1):
        value = abs(oracle.fval(coeffs, n))
        for m in oracle.divisors_trial(value):
            if (m, n) == (1, 0):
                continue
            lo, hi = sorted((m, value // m))
            if lo > n:
                due.append(("LEFT", m, n))
            elif n >= hi:
                due.append(("RIGHT", m, n))
    lines = _lines(text)
    if not due:
        _require(len(lines) == 1 and lines[0].startswith(f"no violations up to n_max = {nmax}"),
                 "violations reported where there are none")
        return
    got = []
    for line in lines:
        found = re.match(r"(LEFT|RIGHT) violation at \((\d+), (\d+)\): ", line)
        _require(found is not None, f"malformed certificate {line[:60]!r}")
        side, m, n = found.group(1), int(found.group(2)), int(found.group(3))
        value = abs(oracle.fval(coeffs, n))
        _require(value % m == 0, f"certificate ({m}, {n}) is not a divisor pair")
        lo, hi = sorted((m, value // m))
        _require(lo > n if side == "LEFT" else n >= hi, f"certificate ({m}, {n}) holds")
        got.append((side, m, n))
    _require(got == due, f"{len(got)} certificates where {len(due)} violations exist")


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------


def _verify(expect: dict, text: str) -> int:
    lines = _lines(text)
    _require(len(lines) == 1, "verify printed more than one line")
    summary = json.loads(lines[0])
    _require(summary["suite"] == expect["suite"] and summary["bound"] == expect["bound"],
             "wrong suite or bound")
    _require(summary["failures"] == [], f"suite reports failures: {summary['failures'][:3]}")
    _require(isinstance(summary["checked"], int) and summary["checked"] >= 1, "nothing checked")
    return summary["checked"]


def row_sums(poly: str, kmax: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """(M_k, N_k, R_k mod each RATIO_PRIME) for rows 0..kmax, from the
    sequence: pair i is (s(2i) - s(i), s(i))."""
    s = oracle.s_prefix(poly, 1 << (kmax + 2))
    out = []
    for k in range(kmax + 1):
        ms = [s[2 * i] - s[i] for i in range(1 << k, 1 << (k + 1))]
        ns = s[1 << k : 1 << (k + 1)]
        ratios = tuple(
            sum(n * pow(m, -1, q) for m, n in zip(ms, ns)) % q for q in oracle.RATIO_PRIMES
        )
        out.append((sum(ms), sum(ns), ratios))
    return out


def _stats(expect: dict, text: str) -> None:
    poly, kmax = expect["poly"], expect["kmax"]
    lines = _lines(text)
    _require(len(lines) == kmax + 1, f"{len(lines)} rows for kmax {kmax}")
    rows = []
    for k, line in enumerate(lines):
        if expect["format"] == "json":
            rec = json.loads(line)
            _require(list(rec) == ["k", "m_sum", "n_sum", "ratio_sum"], f"keys {list(rec)}")
            got = (rec["k"], _jint(rec["m_sum"]), _jint(rec["n_sum"]), rec["ratio_sum"])
        else:
            found = re.fullmatch(r"k=(\d+) M=(\d+) N=(\d+) R=(\d+(?:/\d+)?)", line)
            _require(found is not None, f"malformed row {line[:60]!r}")
            got = (int(found.group(1)), int(found.group(2)), int(found.group(3)), found.group(4))
        _require(got[0] == k, f"row {got[0]} where {k} was due")
        rows.append((got[1], got[2], Fraction(got[3])))
    for k, ((m_sum, n_sum, ratio), (m_due, n_due, ratio_mod)) in enumerate(
        zip(rows, row_sums(poly, kmax))
    ):
        _require((m_sum, n_sum) == (m_due, n_due), f"row {k} sums ({m_sum}, {n_sum})")
        for q, r in zip(oracle.RATIO_PRIMES, ratio_mod):
            _require(ratio.numerator * pow(ratio.denominator, -1, q) % q == r,
                     f"row {k} ratio sum {ratio} is off")
    if poly == "phi0":
        # The paper's identities: M_k = 5 M_{k-1} - 2 M_{k-2}, R_k = (3/2)(2^k - 1).
        for k in range(2, kmax + 1):
            _require(rows[k][0] == 5 * rows[k - 1][0] - 2 * rows[k - 2][0],
                     f"M_{k} breaks M_k = 5M_(k-1) - 2M_(k-2)")
        for k, row in enumerate(rows):
            _require(row[2] == Fraction(3, 2) * ((1 << k) - 1), f"R_{k} is not (3/2)(2^k - 1)")


_CHECKERS = {
    "tree": _tree,
    "seq": _seq,
    "inverse": _inverse,
    "fiber": _fiber,
    "primerep": _primerep,
    "scan": _scan,
    "verify": _verify,
    "stats": _stats,
}
