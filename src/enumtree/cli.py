"""Command-line front end.

    tree      emit a divisor-pair tree breadth first (JSON lines or text)
    seq       emit a second-component sequence (OEIS b-file or JSON lines)
    inverse   invert a pair: generator word, matrix, index, reduction chain
    fiber     tree indices carrying a given n, divisor count, prime verdict
    verify    run a named self-check suite and report a machine-readable summary
    scan      scan an arbitrary polynomial for reachability violations
    stats     row sums / ratio sums of a tree
    primerep  alternating prime-product representation of p at a root n

Commands raise; main alone maps a failure to its code (_EXIT_BY_FAILURE).  JSON integers
above 2^53 - 1 are decimal strings.  Output goes out about 16 KB per write, sized from the
write's first part, one part read ahead (_write_joined).  tree --format text, seq, stats
and verify rowsums stream SSeqKernel._rows in bounded blocks, which verify recursions
checks against the moves; only tree --format json walks maps.tree_rows.  The node budget
is 2^21 unless --max-nodes, or else ENUMTREE_MAX_NODES, sets it for tree or stats;
maps.check_tree_size checks each depth once, before any work, so a negative or oversized
depth exits 2 with empty stdout.  Each verify suite yields a count per batch of checks and
a line per failure; _cmd_verify alone tallies them.
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
    """JSON lines of a tree's nodes from its rows of (m, n) pairs (nonnegative): row r holds
    the nodes 2**r, 2**r + 1, ... until its pairs run out.  With c = min(r, _WORD_TABLE_DEPTH),
    node j * 2**c + i has the word word(2**c + i) + word(j).  Rows 0 .. _WORD_TABLE_DEPTH - 1
    make a word per line read; row _WORD_TABLE_DEPTH makes its 2**c words at once, the table
    that every deeper row shares, where each block of 2**c lines makes one string that ends
    them.  A row's indices are all past 2^53 - 1 or none; m and n are checked per line."""
    for r, pairs in enumerate(rows):
        c, pairs = min(r, _WORD_TABLE_DEPTH), iter(pairs)
        tails = map(index_to_word, range(1 << r, 2 << r)) if r == c else tails  # deeper: the table
        tails = [*tails] if r == _WORD_TABLE_DEPTH else tails  # made at once and kept
        big = 1 << r > _SAFE_INT  # every index of the row is at least 2**r
        for j, first in zip(range(1 << (r - c), 2 << (r - c)), pairs):  # blocks reached
            end = f'{index_to_word(j) if r > c else ""}","row":{r}}}'
            block = chain((first,), islice(pairs, (1 << c) - 1))
            for index, (m, n), tail in zip(count(j << c), block, tails):
                if big or m > _SAFE_INT or n > _SAFE_INT:
                    index, m, n = _json_int(index), _json_int(m), _json_int(n)
                yield f'{{"index":{index},"m":{m},"n":{n},"word":"{tail}{end}'


def _write_joined(parts, sep: str = "\n") -> None:
    """Write parts to stdout, sep between them and a newline after the last; a write
    holds 1 + _WRITE_BYTES // (len(first) + len(sep)) parts, first the part it starts with."""
    write, parts = sys.stdout.write, iter(parts)
    following = next(parts, None)  # the one part read ahead, to choose the last separator
    while following is not None:
        chunk = [following, *islice(parts, _WRITE_BYTES // (len(following) + len(sep)))]
        following = next(parts, None)
        chunk[-1] += "\n" if following is None else sep
        write(sep.join(chunk))


def _chain_text(pairs):
    """str(p) per chain pair; adjacent pairs share m or n, so each integer is converted once."""
    m = n = ms = ns = None
    for p in pairs:
        if p.m != m:
            m, ms = p.m, str(p.m)
        if p.n != n:
            n, ns = p.n, str(p.n)
        yield f"({ms}, {ns})"


def _resolve_budget(args) -> int:
    name, raw = "--max-nodes", args.max_nodes
    if raw is None:
        name = "ENUMTREE_MAX_NODES"
        raw = os.environ.get(name, DEFAULT_NODE_BUDGET)
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {raw!r}")
    return value


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def _cmd_tree(args) -> int:
    f, depth, budget = POLY_BY_NAME[args.poly], args.depth, _resolve_budget(args)
    if args.format == "text":
        check_tree_size(depth, budget)
        for row_idx, row in enumerate(kernel_for(f)._rows(depth, True)):
            cells = (f"({m}, {n})" for m, n in row)  # the indent rides on the first
            _write_joined(chain(["  " * row_idx + next(cells)], cells), "  ")
    else:  # the moves give the pairs; _json_lines gives their words, from its table
        _write_joined(_json_lines(((p.m, p.n) for p in row) for row in tree_rows(f, depth, budget)))
    return EXIT_OK


def _cmd_seq(args) -> int:
    f, count = POLY_BY_NAME[args.poly], args.count
    at_least("count", count, 1)
    rows = kernel_for(f)._rows(count.bit_length() - 1, args.format == "json")
    if args.format == "bfile":
        lines = (f"{k} {v}" for k, v in enumerate(chain.from_iterable(rows), 1))
    else:
        lines = _json_lines(rows)
    _write_joined(islice(lines, count))
    return EXIT_OK


def _cmd_inverse(args) -> int:
    f = POLY_BY_NAME[args.poly]
    trace = f_hat_inverse(f, make_pair(args.m, args.n, f))
    texts = _chain_text(trace.pairs)
    first = next(texts)  # the pair line's and the chain's, converted once
    print(f"pair: {first}")
    print(f"word: {trace.word or '(empty)'}")
    print(f"matrix: {word_to_matrix(trace.word)}")
    print(f"index: {trace.index}")
    _write_joined(chain([f"chain: {first}"], texts), " ")
    return EXIT_OK


def _cmd_fiber(args) -> int:
    f = POLY_BY_NAME[args.poly]
    kernel = kernel_for(f)
    fiber = kernel.fiber(args.n)
    indices = sorted(fiber)
    value = abs(f.poly(args.n))
    print(f"n: {args.n}")
    print(f"|f(n)|: {value}")
    print(f"tau: {len(indices)}")
    _write_joined(chain([f"indices: {indices[0]}"], map(str, indices[1:])), " ")
    if args.n >= 1:
        verdict = "prime" if kernel.is_f_prime_via_fiber(args.n, fiber) else "composite"
        print(f"verdict: {verdict}")
    return EXIT_OK


def _cmd_scan(args) -> int:
    coeffs, n_max = _parse_scan_rest(args.rest)
    f = poly(*coeffs)
    certs = classify.scan_violations(f, n_max)
    if not certs:
        print(f"no violations up to n_max = {n_max} for f = {f}")
    for cert in certs:
        print(f"{cert.side} violation at ({cert.m}, {cert.n}): {cert.detail}  [f = {cert.f}]")
    return EXIT_OK


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


def _cmd_stats(args) -> int:
    check_tree_size(args.kmax, _resolve_budget(args), "kmax")
    for k, row in enumerate(kernel_for(POLY_BY_NAME[args.poly])._rows(args.kmax, True)):
        st = analytics.row_stats(k, row)
        if args.format == "json":
            print(
                f'{{"k":{st.k},"m_sum":{_json_int(st.m_sum)},'
                f'"n_sum":{_json_int(st.n_sum)},"ratio_sum":"{st.ratio_sum}"}}'
            )
        else:
            print(f"k={st.k} M={st.m_sum} N={st.n_sum} R={st.ratio_sum}")
    return EXIT_OK


def _cmd_primerep(args) -> int:
    rep = analytics.prime_representation(POLY_BY_NAME[args.poly], args.p, args.n)
    num, den = [], []
    for v, e in rep.factors():  # e is +1 or -1
        (num if e > 0 else den).append(v)
    print(f"p: {rep.p}")
    print("n-values: " + " ".join(str(n) for n in rep.n_values))
    expr = " * ".join(f"|f({n})|^{e:+d}" for n, e in zip(rep.n_values, rep.exponents))
    print(f"form: p = {expr}")
    shown = " * ".join(str(v) for v in num)
    if den:
        shown += " / (" + " * ".join(str(v) for v in den) + ")"
    print(f"value: {rep.p} = {shown}")
    return EXIT_OK


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
                s_k, s_2k, _ = kernel._triple(k)  # the round trip: node k is (s(2k) - s(k), s(k))
                if (s_2k - s_k, s_k) != (m, n):
                    yield f"{f}: index {k} of ({m}, {n}) holds ({s_2k - s_k}, {s_k})"
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


def _cmd_verify(args) -> int:
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
    print(json.dumps(summary, separators=(",", ":")))
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


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

    p_tree = sub.add_parser("tree", parents=[named], help="emit a divisor-pair tree breadth first")
    p_tree.add_argument("--depth", type=int, required=True)
    p_tree.add_argument("--format", choices=("json", "text"), default="json")
    p_tree.add_argument("--max-nodes", type=int, default=None)
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
    p_stats.add_argument("--max-nodes", type=int, default=None)
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
        return args.func(args)
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
