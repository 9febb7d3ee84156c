"""Command-line front end.

    tree      emit a divisor-pair tree breadth first (JSON lines or text)
    seq       emit a second-component sequence (OEIS b-file or JSON lines)
    inverse   invert a pair: generator word, matrix, index, reduction chain
    fiber     tree indices carrying a given n, divisor count, prime verdict
    verify    run a named self-check suite and report a machine-readable summary
    scan      scan an arbitrary polynomial for reachability violations
    stats     row sums / ratio sums of a tree
    primerep  alternating prime-product representation of p at a root n

Commands raise and touch no stdout: each returns its exit code and its output as parts,
and main alone writes them (_write, about 16 KB a write, so a refusal before the first
write leaves stdout empty) and maps a failure to its code (_EXIT_BY_FAILURE).  JSON
integers above 2^53 - 1 are decimal strings.  tree --format text, seq, stats and verify
rowsums stream SSeqKernel._rows in bounded blocks, which verify recursions checks against
the moves; only tree --format json walks maps.tree_rows.  The node budget of tree and stats
is --max-nodes, whose default is ENUMTREE_MAX_NODES or else 2^21; maps.check_tree_size
checks it and each depth once, before any work, so a negative budget or depth, or a depth
past the budget, exits 2 with empty stdout.  Each verify suite yields a count per batch
of checks and a line per failure; _cmd_verify alone tallies them.
"""

import argparse
import os
import sys
from itertools import chain, count, islice
from math import isqrt

from . import analytics, classify
from ._record import at_least
from .arith import FactorLimitExceeded, divisors, is_prime, primes_up_to
from .maps import (
    DEFAULT_NODE_BUDGET,
    NodeBudgetExceeded,
    check_tree_size,
    f_hat_inverse,
    int_tree_rows,
    tree_rows,
)
from .monoid import index_to_word, word_to_matrix
from .pairs import ENUMERABLE_POLYS, PHI0, POLY_BY_NAME, BadPair, make_pair, poly
from .sseq import kernel_for

__all__ = ["main", "console_main"]

_SAFE_INT = (1 << 53) - 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BUDGET = 2
EXIT_BAD_PAIR = 3
EXIT_VANISHING = 4
EXIT_ARITHMETIC = 5
EXIT_INTERNAL = 70  # EX_SOFTWARE of sysexits.h
EXIT_BROKEN_PIPE = 141

# The first row whose types match a failure gives its exit code, so the
# ValueError subclasses come before ValueError.
_EXIT_BY_FAILURE = (
    ((classify.PolynomialVanishes,), EXIT_VANISHING),
    ((BadPair,), EXIT_BAD_PAIR),
    ((NodeBudgetExceeded, ValueError), EXIT_BUDGET),
    ((FactorLimitExceeded, ArithmeticError, MemoryError), EXIT_ARITHMETIC),
)

# Bytes per stdout write, about: the part that starts a write sets its part count.
_WRITE_BYTES = 1 << 14
# JSON lines take their words' first letters from a table of this depth (_json_lines).
_WORD_TABLE_DEPTH = 10


def _json_int(v: int) -> str:
    """v as JSON: a number up to 2^53 - 1 in magnitude, else a decimal string."""
    return str(v) if -_SAFE_INT <= v <= _SAFE_INT else f'"{v}"'


def _json_lines(rows):
    """JSON lines, each ending in its newline, of a tree's nodes from its rows of (m, n)
    pairs (nonnegative): row r holds the nodes 2**r, 2**r + 1, ... until its pairs run out.
    With c = min(r, _WORD_TABLE_DEPTH), node j * 2**c + i has the word word(2**c + i) +
    word(j).  Rows 0 .. _WORD_TABLE_DEPTH - 1 make a word per line read; row
    _WORD_TABLE_DEPTH makes its 2**c words at once, the table that every deeper row shares,
    where each block of 2**c lines makes one string that ends them.  A row's indices are all
    past 2^53 - 1 or none; m and n are checked per line."""
    for r, pairs in enumerate(rows):
        c, pairs = min(r, _WORD_TABLE_DEPTH), iter(pairs)
        tails = map(index_to_word, range(1 << r, 2 << r)) if r == c else tails  # deeper: the table
        tails = [*tails] if r == _WORD_TABLE_DEPTH else tails  # made at once and kept
        big = 1 << r > _SAFE_INT  # every index of the row is at least 2**r
        for j, first in zip(range(1 << (r - c), 2 << (r - c)), pairs):  # blocks reached
            end = f'{index_to_word(j) if r > c else ""}","row":{r}}}\n'
            block = chain((first,), islice(pairs, (1 << c) - 1))
            for index, (m, n), tail in zip(count(j << c), block, tails):
                if big or m > _SAFE_INT or n > _SAFE_INT:
                    index, m, n = _json_int(index), _json_int(m), _json_int(n)
                yield f'{{"index":{index},"m":{m},"n":{n},"word":"{tail}{end}'


def _write(parts) -> None:
    """Write the nonempty parts to stdout as they are, 1 + _WRITE_BYTES // len(first) to a
    write, first the part it starts with: a refusal while the first write forms writes nothing."""
    write, parts = sys.stdout.write, iter(parts)
    for first in parts:
        write("".join([first, *islice(parts, _WRITE_BYTES // len(first))]))


def _chain_text(pairs):
    """' (m, n)', its space first, per chain pair; adjacent pairs share m or n, so each
    integer is converted once."""
    m = n = ms = ns = None
    for p in pairs:
        if p.m != m:
            m, ms = p.m, str(p.m)
        if p.n != n:
            n, ns = p.n, str(p.n)
        yield f" ({ms}, {ns})"


# ----------------------------------------------------------------------
# commands: each returns its exit code and its output, an iterable of nonempty
# parts, each ending in its own separator or newline, for main to write
# ----------------------------------------------------------------------


def _cmd_tree(args) -> tuple:
    f, depth, budget = POLY_BY_NAME[args.poly], args.depth, args.max_nodes
    if args.format == "json":  # the moves give the pairs; _json_lines gives their words
        rows = tree_rows(f, depth, budget)
        return EXIT_OK, _json_lines(((p.m, p.n) for p in row) for row in rows)
    check_tree_size(depth, budget)
    rows = ((f"  ({m}, {n})" for m, n in row) for row in kernel_for(f)._rows(depth, True))
    # the indent takes the place of the first cell's separator
    lines = (chain(["  " * r + next(cells)[2:]], cells, ["\n"]) for r, cells in enumerate(rows))
    return EXIT_OK, chain.from_iterable(lines)


def _cmd_seq(args) -> tuple:
    f, count = POLY_BY_NAME[args.poly], args.count
    at_least("count", count, 1)
    rows = kernel_for(f)._rows(count.bit_length() - 1, args.format == "json")
    if args.format == "bfile":
        lines = (f"{k} {v}\n" for k, v in enumerate(chain.from_iterable(rows), 1))
    else:
        lines = _json_lines(rows)
    return EXIT_OK, islice(lines, count)


def _cmd_inverse(args) -> tuple:
    f = POLY_BY_NAME[args.poly]
    trace = f_hat_inverse(f, make_pair(args.m, args.n, f))
    texts = _chain_text(trace.pairs)
    first = next(texts)  # the pair line's and the chain's, converted once
    head = (
        f"pair:{first}\nword: {trace.word or '(empty)'}\nmatrix: {word_to_matrix(trace.word)}\n"
        f"index: {trace.index}\nchain:{first}"
    )
    return EXIT_OK, chain([head], texts, ["\n"])


def _cmd_fiber(args) -> tuple:
    f = POLY_BY_NAME[args.poly]
    kernel = kernel_for(f)
    fiber = kernel.fiber(args.n)
    head = f"n: {args.n}\n|f(n)|: {abs(f.poly(args.n))}\ntau: {len(fiber)}\nindices:"
    tail = "\n"
    if args.n >= 1:
        verdict = "prime" if kernel.is_f_prime_via_fiber(args.n, fiber) else "composite"
        tail += f"verdict: {verdict}\n"
    return EXIT_OK, chain([head], (f" {k}" for k in sorted(fiber)), [tail])


def _cmd_scan(args) -> tuple:
    coeffs, n_max = _parse_scan_rest(args.rest)
    f = poly(*coeffs)
    lines = [
        f"{c.side} violation at ({c.m}, {c.n}): {c.detail}  [f = {c.f}]\n"
        for c in classify.scan_violations(f, n_max)
    ]
    return EXIT_OK, lines or [f"no violations up to n_max = {n_max} for f = {f}\n"]


def _parse_scan_rest(rest: list[str]) -> tuple[list[int], int]:
    # --nmax may follow the coefficients, or precede them past the "--" guard
    # (argparse reads a leading flag as its own); the guard also keeps negative
    # coefficients from being read as flags.
    def integer(tok: str, message: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise ValueError(message) from None

    coeffs: list[int] = []
    n_max, guarded, tokens = 10, False, iter(rest)
    for tok in tokens:
        if tok == "--" and not guarded:
            guarded = True
        elif tok == "--nmax":
            value = next(tokens, None)
            if value is None:
                raise ValueError("--nmax needs a value")
            n_max = integer(value, f"--nmax needs an integer, got {value!r}")
            at_least("--nmax", n_max, 0)
        else:
            coeffs.append(integer(tok, f"unrecognized scan argument {tok!r}"))
    if not coeffs:
        raise ValueError("scan needs a coefficient list (constant term first)")
    return coeffs, n_max


def _cmd_stats(args) -> tuple:
    check_tree_size(args.kmax, args.max_nodes, "kmax")
    rows = kernel_for(POLY_BY_NAME[args.poly])._rows(args.kmax, True)
    stats = map(analytics.row_stats, count(), rows)
    if args.format == "text":
        return EXIT_OK, (f"k={st.k} M={st.m_sum} N={st.n_sum} R={st.ratio_sum}\n" for st in stats)
    return EXIT_OK, (
        f'{{"k":{st.k},"m_sum":{_json_int(st.m_sum)},'
        f'"n_sum":{_json_int(st.n_sum)},"ratio_sum":"{st.ratio_sum}"}}\n'
        for st in stats
    )


def _cmd_primerep(args) -> tuple:
    rep = analytics.prime_representation(POLY_BY_NAME[args.poly], args.p, args.n)
    num, den = [], []
    for v, e in rep.factors():  # e is +1 or -1
        (num if e > 0 else den).append(v)
    expr = " * ".join(f"|f({n})|^{e:+d}" for n, e in zip(rep.n_values, rep.exponents))
    shown = " * ".join(str(v) for v in num)
    if den:
        shown += " / (" + " * ".join(str(v) for v in den) + ")"
    return EXIT_OK, [
        f"p: {rep.p}\n",
        "n-values: " + " ".join(str(n) for n in rep.n_values) + "\n",
        f"form: p = {expr}\n",
        f"value: {rep.p} = {shown}\n",
    ]


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------


def _tau_trial(v: int) -> int:
    # Independent of the factorization-based divisor count on purpose:
    # each divisor i <= sqrt(v) stands for the couple (i, v / i).
    r = isqrt(v)
    return sum(2 for i in range(1, r + 1) if v % i == 0) - (r * r == v)


def _suite_bijectivity(bound: int):
    depth = 12
    for f in ENUMERABLE_POLYS:
        seen = set()
        for row in int_tree_rows(f, depth):
            for pair in row:
                if pair in seen:
                    yield f"{f}: duplicate tree pair {pair}"
                seen.add(pair)
            yield len(row)
        kernel = kernel_for(f)
        for n in range(1, bound + 1):
            value, indices = abs(f.poly(n)), set()
            for m in divisors(value):
                k = f_hat_inverse(f, make_pair(m, n, f)).index
                indices.add(k)
                node = kernel.pair_at(k)  # the round trip from the index back to its pair
                if node.components() != (m, n):
                    yield f"{f}: index {k} of ({m}, {n}) holds {node}"
                yield 1
            if len(indices) != _tau_trial(value):
                yield f"{f}: fiber of {n} has colliding indices"


def _suite_tau(bound: int):
    for f in ENUMERABLE_POLYS:
        kernel = kernel_for(f)
        for n in range(bound + 1):
            expected = _tau_trial(abs(f.poly(n)))
            got = len(kernel.fiber(n))
            if got != expected:
                yield f"{f}: fiber size {got} != tau {expected} at n = {n}"
            yield 1


def _suite_primality(bound: int):
    for f in ENUMERABLE_POLYS:
        kernel = kernel_for(f)
        for n in range(1, bound + 1):
            via_fiber = kernel.is_f_prime_via_fiber(n)
            direct = is_prime(abs(f.poly(n)))
            if via_fiber != direct:
                yield f"{f}: fiber verdict {via_fiber} != primality at n = {n}"
            yield 1


def _suite_recursions(bound: int):
    for f in ENUMERABLE_POLYS:
        rows = int_tree_rows(f, bound, DEFAULT_NODE_BUDGET, "bound")  # checked before kernel_for
        kernel = kernel_for(f)
        for r, (row, pairs) in enumerate(zip(rows, kernel._rows(bound, True), strict=True)):
            if row != list(pairs):
                yield f"{f}: row {r} of the kernel's pairs disagrees with the tree"
            yield len(row)
        s = kernel._fill(4 * (1 << bound) + 4, [*kernel.initial])  # slot j holds s(j)
        for k in range(kernel.start, (1 << bound) + 1):
            ok = (
                s[4 * k] == 2 * s[2 * k] - s[k]
                and s[4 * k + 1] == 2 * s[2 * k] + s[2 * k + 1] + f.beta
                and s[4 * k + 2] == 2 * s[2 * k + 1] + s[2 * k] + f.beta
                and s[4 * k + 3] == 2 * s[2 * k + 1] - s[k]
            )
            if not ok:
                yield f"{f}: recursion branch broken at k = {k}"
            yield 1


def _suite_rowsums(bound: int):
    from fractions import Fraction
    check_tree_size(bound, DEFAULT_NODE_BUDGET, "bound")
    for k, row in enumerate(kernel_for(PHI0)._rows(bound, True)):
        direct = analytics.row_stats(k, row)
        rec = analytics.row_stats_recursive(k)
        if direct != rec:
            yield f"row {k}: recursion disagrees with direct sums"
        if rec.ratio_sum != analytics.ratio_closed_form(k):
            yield f"row {k}: ratio closed form disagrees"
        yield 1
    if bound >= 12:
        avg = analytics.ratio_closed_form(12) / (1 << 12)
        if abs(avg - Fraction(3, 2)) > Fraction(1, 1000):
            yield "row-average at k = 12 is not within 1e-3 of 3/2"
        yield 1


def _suite_classification(bound: int):
    for f in ENUMERABLE_POLYS:
        certs = classify.scan_violations(f.poly, bound)
        if certs:
            yield f"{f}: unexpected violation {certs[0]}"
        yield 1
    expected = [
        (poly(1, 5, 1), (5, 3)),
        (poly(-1, 1, 1), (1, 1)),
        (poly(1, 1), (2, 3)),
        (poly(1, 2), (3, 4)),
        (poly(1, 3), (4, 5)),
    ]
    for f, witness in expected:
        certs = classify.scan_violations(f, max(bound, witness[1]))
        hits = {(c.m, c.n) for c in certs}
        if witness not in hits:
            yield f"{f}: expected witness {witness} not flagged"
        yield 1


def _suite_prime_reps(bound: int):
    for p in primes_up_to(bound):
        for n in analytics.roots_mod_p(PHI0, p):
            if analytics.prime_representation(PHI0, p, n).product() != p:
                yield f"the chain of ({p}, {n}) does not telescope to {p}"
            yield 1


_SUITES = {
    "bijectivity": (_suite_bijectivity, 200),
    "tau": (_suite_tau, 1000),
    "primality": (_suite_primality, 1000),
    "recursions": (_suite_recursions, 12),
    "rowsums": (_suite_rowsums, 14),
    "classification": (_suite_classification, 200),
    "prime-reps": (_suite_prime_reps, 2000),
}


def _cmd_verify(args) -> tuple:
    import json
    runner, default_bound = _SUITES[args.suite]
    bound = args.bound if args.bound is not None else default_bound
    at_least("bound", bound, 0)
    checked, failures = 0, []
    for item in runner(bound):  # a count of checks made, or a failure line
        if isinstance(item, str):
            failures.append(item)
        else:
            checked += item
    summary = {
        "suite": args.suite,
        "bound": bound,
        "checked": checked,
        "failures": failures,
    }
    code = EXIT_VERIFY_FAILED if failures else EXIT_OK
    return code, [json.dumps(summary, separators=(",", ":")) + "\n"]


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enumtree",
        description="Divisor-pair trees of four integer quadratics and their sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    named = argparse.ArgumentParser(add_help=False)  # the tree a command reads
    named.add_argument("poly", choices=POLY_BY_NAME)
    # argparse parses a string default with the type, when the flag is absent
    budget = os.environ.get("ENUMTREE_MAX_NODES", DEFAULT_NODE_BUDGET)

    p_tree = sub.add_parser("tree", parents=[named], help="emit a divisor-pair tree breadth first")
    p_tree.add_argument("--depth", type=int, required=True)
    p_tree.add_argument("--format", choices=("json", "text"), default="json")
    p_tree.add_argument("--max-nodes", type=int, default=budget)
    p_tree.set_defaults(func=_cmd_tree)

    p_seq = sub.add_parser("seq", parents=[named], help="emit a second-component sequence")
    p_seq.add_argument("--count", type=int, required=True)
    p_seq.add_argument("--format", choices=("bfile", "json"), default="bfile")
    p_seq.set_defaults(func=_cmd_seq)

    p_inv = sub.add_parser(
        "inverse", parents=[named], help="invert a divisor pair to word/matrix/index"
    )
    p_inv.add_argument("m", type=int)
    p_inv.add_argument("n", type=int)
    p_inv.set_defaults(func=_cmd_inverse)

    p_fiber = sub.add_parser("fiber", parents=[named], help="tree indices carrying a given n")
    p_fiber.add_argument("n", type=int)
    p_fiber.set_defaults(func=_cmd_fiber)

    p_verify = sub.add_parser("verify", help="run a self-check suite")
    p_verify.add_argument("suite", choices=_SUITES)
    p_verify.add_argument("--bound", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser(
        "scan",
        help="scan a polynomial (coefficients, constant term first) for violations",
    )
    p_scan.add_argument("rest", nargs=argparse.REMAINDER)
    p_scan.set_defaults(func=_cmd_scan)

    p_stats = sub.add_parser("stats", parents=[named], help="row sums of a tree")
    p_stats.add_argument("--kmax", type=int, required=True)
    p_stats.add_argument("--format", choices=("text", "json"), default="text")
    p_stats.add_argument("--max-nodes", type=int, default=budget)
    p_stats.set_defaults(func=_cmd_stats)

    p_rep = sub.add_parser(
        "primerep", parents=[named], help="alternating prime-product representation"
    )
    p_rep.add_argument("p", type=int)
    p_rep.add_argument("n", type=int)
    p_rep.set_defaults(func=_cmd_primerep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, parts = args.func(args)
        _write(parts)
        return code
    except tuple(t for types, _ in _EXIT_BY_FAILURE for t in types) as exc:
        code = next(code for types, code in _EXIT_BY_FAILURE if isinstance(exc, types))
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code
    except BrokenPipeError:
        raise  # console_main's exit 141
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Reader gone (e.g. `| head`): discard the rest so exit's flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    console_main()
