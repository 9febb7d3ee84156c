"""Seeded operation lists for the three workloads.

An operation is a dict with the CLI argv, the facts its checker needs
(``expect``) and ``items``, the count of result items it delivers (tree nodes
plus sequence terms written for ``stream``; one per answer for ``query``; row
nodes summed plus suite checks for ``analyze``).

Sizes are drawn stratified: a draw of K values splits the range into K equal
strata (on a log scale where the cost grows geometrically) and takes one
value near the middle of each, then shuffles.  Every seed therefore gives new
inputs (words, primes, polynomials, order) with nearly the same cost profile,
which keeps run-to-run spread small.  The list is sized so that PASSES passes
over it take about ``seconds`` at the reference commit, using fixed
per-operation cost estimates taken on a 2-core x86 VM with Python 3.11; it
depends only on (workload, seed, seconds).
"""

import math
import random

from . import oracle

WORKLOADS = ("stream", "query", "analyze")
PASSES = 3
STRATUM_JITTER = 0.2

# Estimated cost, in reference-speed seconds (see run.REF_PROBE_S), of one
# stream rotation (16 invocations), of one analyze stats round (8
# invocations) and of the seven verify suites.
STREAM_ROUND_S = 6.0
ANALYZE_ROUND_S = 2.7
ANALYZE_VERIFY_S = 3.5
# Query invocations per second of run length (all four kinds together).
QUERY_OPS_PER_S = 9.0

# The fiber draw stops near 10^5 as a safety limit, not a filter: each
# divisor's inverse builds a word of about n letters, so n near 10^8 or more
# would exhaust memory.  Indices above about 14,300 bits pass Python's
# 4,300-digit int-to-string limit, so the upper part of the draw fails today.
FIBER_N_MAX = 100_000
INVERSE_LETTERS = (20, 5000)
PRIME_BITS = (8, 80)
SCAN_NMAX = (5, 60)

VERIFY_SUITES = {
    "bijectivity": 200,
    "tau": 1000,
    "primality": 1000,
    "recursions": 12,
    "rowsums": 14,
    "classification": 200,
    "prime-reps": 2000,
}


def stratified(rng: random.Random, count: int, lo: float, hi: float, log: bool) -> list[float]:
    """count values in [lo, hi], one near the middle of each equal stratum,
    in random order; the offset from the middle is random but small, so the
    cost profile barely moves between seeds."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    out = []
    for i in range(count):
        v = a + (i + 0.5 + STRATUM_JITTER * (rng.random() - 0.5)) * (b - a) / count
        out.append(math.exp(v) if log else v)
    rng.shuffle(out)
    return out


def _poly_cycle(rng: random.Random, count: int) -> list[str]:
    polys = [oracle.POLYS[i % 4] for i in range(count)]
    rng.shuffle(polys)
    return polys


def build(workload: str, seed: int, seconds: int) -> list[dict]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return {"stream": _stream, "query": _query, "analyze": _analyze}[workload](rng, seconds)


# ----------------------------------------------------------------------
# stream: tree dumps and sequence files, a rotation over poly x format
# ----------------------------------------------------------------------

# Sizes per kind, one per poly in each rotation: small, medium, medium, large.
# The medium ops of all four kinds cost about the same, so the median and
# the tail percentile (rank 6 of 16) fall inside that cluster on every seed.
_TREE_JSON_DEPTHS = (12, 13, 13, 14)
_TREE_TEXT_DEPTHS = (14, 15, 15, 16)
_SEQ_BFILE_COUNTS = (35_000, 90_000, 90_000, 175_000)
_SEQ_JSON_COUNTS = (10_000, 27_000, 27_000, 55_000)
COUNT_JITTER = 0.03


def _stream(rng: random.Random, seconds: int) -> list[dict]:
    ops = []
    for _ in range(max(1, round(seconds / PASSES / STREAM_ROUND_S))):
        round_ops = []
        for fmt, depths in (("json", _TREE_JSON_DEPTHS), ("text", _TREE_TEXT_DEPTHS)):
            for poly, depth in zip(_poly_cycle(rng, 4), depths):
                round_ops.append(_tree_op(poly, depth, fmt))
        for fmt, counts in (("bfile", _SEQ_BFILE_COUNTS), ("json", _SEQ_JSON_COUNTS)):
            for poly, count in zip(_poly_cycle(rng, 4), counts):
                count = round(count * (1 + COUNT_JITTER * (2 * rng.random() - 1)))
                round_ops.append(_seq_op(poly, count, fmt))
        rng.shuffle(round_ops)
        ops += round_ops
    return ops


def _tree_op(poly: str, depth: int, fmt: str) -> dict:
    return {
        "kind": "tree",
        "argv": ["tree", poly, "--depth", str(depth), "--format", fmt],
        "expect": {"poly": poly, "depth": depth, "format": fmt},
        "items": (1 << (depth + 1)) - 1,
    }


def _seq_op(poly: str, count: int, fmt: str) -> dict:
    return {
        "kind": "seq",
        "argv": ["seq", poly, "--count", str(count), "--format", fmt],
        "expect": {"poly": poly, "count": count, "format": fmt},
        "items": count,
    }


# ----------------------------------------------------------------------
# query: many short invocations of four kinds
# ----------------------------------------------------------------------


def _query(rng: random.Random, seconds: int) -> list[dict]:
    per_kind = max(11, round(seconds / PASSES * QUERY_OPS_PER_S / 4))
    ops = []
    lengths = stratified(rng, per_kind, *INVERSE_LETTERS, log=True)
    for poly, length in zip(_poly_cycle(rng, per_kind), lengths):
        word = "".join(rng.choice("ST") for _ in range(int(length)))
        m, n = oracle.matrix_to_pair(poly, oracle.word_to_matrix(word))
        ops.append({
            "kind": "inverse",
            "argv": ["inverse", poly, str(m), str(n)],
            "expect": {"poly": poly, "m": m, "n": n, "word": word},
            "items": 1,
        })
    ns = stratified(rng, per_kind, 10, FIBER_N_MAX, log=True)
    for poly, n in zip(_poly_cycle(rng, per_kind), ns):
        ops.append({
            "kind": "fiber",
            "argv": ["fiber", poly, str(int(n))],
            "expect": {"poly": poly, "n": int(n)},
            "items": 1,
        })
    bits = stratified(rng, per_kind, *PRIME_BITS, log=False)
    for poly, b in zip(_poly_cycle(rng, per_kind), bits):
        p, n = _prime_with_root(rng, poly, int(b))
        ops.append({
            "kind": "primerep",
            "argv": ["primerep", poly, str(p), str(n)],
            "expect": {"poly": poly, "p": p, "n": n},
            "items": 1,
        })
    nmaxes = stratified(rng, per_kind, *SCAN_NMAX, log=True)
    for nmax in nmaxes:
        coeffs = _non_enumerable_quadratic(rng, int(nmax))
        ops.append({
            "kind": "scan",
            "argv": ["scan", "--", *map(str, coeffs), "--nmax", str(int(nmax))],
            "expect": {"coeffs": coeffs, "nmax": int(nmax)},
            "items": 1,
        })
    rng.shuffle(ops)
    return ops


def _prime_with_root(rng: random.Random, poly: str, bits: int) -> tuple[int, int]:
    """A prime of the given bit length dividing some |f(n)|, and such an n < p."""
    while True:
        p = rng.randrange(1 << (bits - 1), 1 << bits) | 1
        while not oracle.is_prime_mr(p):
            p += 2
        if p.bit_length() != bits:
            continue
        roots = oracle.roots_mod_p(poly, p)
        if roots:
            return p, rng.choice(roots)


_ENUMERABLE = {c for c in oracle.COEFFS.values()} | {
    tuple(-x for x in c) for c in oracle.COEFFS.values()
}


def _non_enumerable_quadratic(rng: random.Random, nmax: int) -> tuple[int, int, int]:
    """Coefficients (constant first) of a quadratic that is not one of the four
    and has no root on 0..nmax, so the scan answers rather than exits 4."""
    while True:
        coeffs = (rng.randint(-999, 999), rng.randint(-999, 999), rng.randint(1, 99))
        if coeffs in _ENUMERABLE:
            continue
        if all(oracle.fval(coeffs, n) != 0 for n in range(nmax + 1)):
            return coeffs


# ----------------------------------------------------------------------
# analyze: row sums and the self-check suites
# ----------------------------------------------------------------------

_PHI0_KMAX = (13, 14)
# For the other trees the exact ratio sum passes 4,300 digits from row 13 on,
# so kmax 13 fails today; the sizes straddle that limit on purpose.  A fixed
# multiset keeps the cost profile, and so the order statistics, steady.
_OTHER_KMAX = (10, 11, 12, 12, 13, 13)


def _analyze(rng: random.Random, seconds: int) -> list[dict]:
    ops = [_verify_op(suite) for suite in VERIFY_SUITES]
    rounds = max(1, round((seconds / PASSES - ANALYZE_VERIFY_S) / ANALYZE_ROUND_S))
    for _ in range(rounds):
        kmaxes = list(_PHI0_KMAX)
        rng.shuffle(kmaxes)
        ops += [_stats_op("phi0", k, fmt) for k, fmt in zip(kmaxes, ("text", "json"))]
        others = list(_OTHER_KMAX)
        rng.shuffle(others)
        slots = [(poly, fmt) for poly in oracle.POLYS[1:] for fmt in ("text", "json")]
        ops += [_stats_op(poly, k, fmt) for (poly, fmt), k in zip(slots, others)]
    rng.shuffle(ops)
    return ops


def _verify_op(suite: str) -> dict:
    return {
        "kind": "verify",
        "argv": ["verify", suite],
        "expect": {"suite": suite, "bound": VERIFY_SUITES[suite]},
        # The suite's own "checked" count is added by the checker.
        "items": 0,
    }


def _stats_op(poly: str, kmax: int, fmt: str) -> dict:
    return {
        "kind": "stats",
        "argv": ["stats", poly, "--kmax", str(kmax), "--format", fmt],
        "expect": {"poly": poly, "kmax": kmax, "format": fmt},
        "items": (1 << (kmax + 1)) - 1,
    }
