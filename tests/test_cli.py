import ast
import hashlib
import inspect
import io
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enumtree
from enumtree import _record, analytics, arith, cli, maps, pairs, sseq
from enumtree.arith import FactorLimitExceeded
from enumtree.cli import _SUITES, main
from enumtree.maps import f_hat, f_hat_inverse, int_tree_rows, tree_rows
from enumtree.monoid import index_to_word, mirror_index, word_to_matrix
from enumtree.pairs import ENUMERABLE_POLYS, PHI0, POLY_BY_NAME, Poly, make_pair
from enumtree.sseq import kernel_for
from oracles import bfs_words, trial_tau


def suite_failures(suite, bound):
    """The failure lines a verify suite yields, without the counts it yields beside them."""
    return [item for item in _SUITES[suite][0](bound) if isinstance(item, str)]


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_seq_bfile(capsys):
    code, out, _ = run(capsys, "seq", "phi0", "--count", "15")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 0"
    assert [int(line.split()[1]) for line in lines] == [
        0, 1, 1, 2, 3, 3, 2, 3, 7, 8, 5, 5, 8, 7, 3,
    ]


def test_seq_single(capsys):
    code, out, _ = run(capsys, "seq", "phi0", "--count", "1")
    assert code == 0 and out == "1 0\n"


def test_seq_json_records(capsys):
    code, out, _ = run(capsys, "seq", "psi2", "--count", "7", "--format", "json")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in recs] == [0, 1, 1, 2, 3, 3, 2]
    assert recs[4] == {"index": 5, "m": 7, "n": 3, "word": "TS", "row": 2}


@pytest.mark.parametrize("fmt", ["bfile", "json"])
@pytest.mark.parametrize("count", ["0", "-3"])
def test_seq_refuses_a_nonpositive_count_in_every_format(capsys, fmt, count):
    code, out, err = run(capsys, "seq", "phi0", "--count", count, "--format", fmt)
    assert (code, out, err) == (2, "", f"error: count must be an integer >= 1, got {count}\n")


def test_tree_json(capsys):
    code, out, _ = run(capsys, "tree", "phi0", "--depth", "2")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert len(recs) == 7
    assert recs[-1] == {"index": 7, "m": 5, "n": 2, "word": "TT", "row": 2}


def test_tree_depth_zero(capsys):
    code, out, _ = run(capsys, "tree", "phi0", "--depth", "0")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs == [{"index": 1, "m": 1, "n": 0, "word": "", "row": 0}]
    # the root alone fits a budget of one node
    assert run(capsys, "tree", "phi0", "--depth", "0", "--max-nodes", "1") == (0, out, "")


def test_tree_text(capsys):
    code, out, _ = run(capsys, "tree", "phi3", "--depth", "1", "--format", "text")
    assert code == 0
    assert out == "(1, 0)\n  (1, 1)  (5, 1)\n"


def test_tree_json_round_trips(capsys):
    code, out, _ = run(capsys, "tree", "phi1", "--depth", "4")
    assert code == 0
    for line in out.splitlines():
        assert json.dumps(json.loads(line), separators=(",", ":")) == line


def test_tree_budget_exit(capsys):
    code, _, err = run(capsys, "tree", "phi0", "--depth", "12", "--max-nodes", "100")
    assert code == 2 and "budget" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("ENUMTREE_MAX_NODES", "100")
    code, _, err = run(capsys, "tree", "phi0", "--depth", "12")
    assert code == 2
    # explicit flag wins over the environment
    code, out, _ = run(capsys, "tree", "phi0", "--depth", "12", "--max-nodes", "100000")
    assert code == 0 and len(out.splitlines()) == 2**13 - 1


def test_the_budget_override_reaches_tree_and_stats_only(capsys, monkeypatch):
    # verify suites and kernel seed rows keep the default 2^21 nodes, either way
    monkeypatch.setenv("ENUMTREE_MAX_NODES", "100")
    for argv in (["tree", "phi0", "--depth", "8"], ["stats", "phi0", "--kmax", "8"]):
        assert run(capsys, *argv)[0] == 2
    code, out, _ = run(capsys, "verify", "recursions", "--bound", "8")  # 511 nodes a tree
    assert code == 0 and json.loads(out)["failures"] == []
    monkeypatch.setenv("ENUMTREE_MAX_NODES", str(10**8))
    assert run(capsys, "verify", "rowsums", "--bound", "21") == (
        2, "", "error: bound 21 needs 4194303 nodes, budget is 2097152\n"
    )


# check_tree_size is the budget's one check, for the flag and the variable alike: 0 refuses
# every walk, and a negative budget is refused by name
_BUDGET_REFUSAL = {
    ("tree", "0"): "error: depth 2 needs 7 nodes, budget is 0\n",
    ("stats", "0"): "error: kmax 5 needs 63 nodes, budget is 0\n",
    ("tree", "-5"): "error: max_nodes must be an integer >= 0, got -5\n",
    ("stats", "-5"): "error: max_nodes must be an integer >= 0, got -5\n",
}


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("argv", [["tree", "phi0", "--depth", "2"], ["stats", "phi0", "--kmax", "5"]])
def test_nonpositive_max_nodes_is_usage_error(capsys, argv, value):
    code, out, err = run(capsys, *argv, "--max-nodes", value)
    assert (code, out) == (2, "")
    assert err == _BUDGET_REFUSAL[argv[0], value]


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-5"])
@pytest.mark.parametrize("argv", [["tree", "phi0", "--depth", "2"], ["stats", "phi0", "--kmax", "5"]])
def test_bad_budget_env_var_is_usage_error(capsys, monkeypatch, argv, value):
    # the variable is the default of --max-nodes, so argparse parses it as the flag
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("ENUMTREE_MAX_NODES", value)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    usage = {"tree": _TREE_USAGE, "stats": _STATS_USAGE}[argv[0]]
    assert err == _BUDGET_REFUSAL.get(
        (argv[0], value),
        f"{usage}enumtree {argv[0]}: error: argument --max-nodes: invalid int value: {value!r}\n",
    )


@pytest.mark.parametrize("command", ["tree", "stats"])
def test_the_budget_variable_is_the_default_of_max_nodes(monkeypatch, command):
    argv = [command, "phi0", "--depth" if command == "tree" else "--kmax", "2"]
    monkeypatch.delenv("ENUMTREE_MAX_NODES", raising=False)
    assert cli.build_parser().parse_args(argv).max_nodes == maps.DEFAULT_NODE_BUDGET
    monkeypatch.setenv("ENUMTREE_MAX_NODES", "100")
    assert cli.build_parser().parse_args(argv).max_nodes == 100
    monkeypatch.setenv("ENUMTREE_MAX_NODES", "abc")  # the flag wins: the default goes unparsed
    assert cli.build_parser().parse_args([*argv, "--max-nodes", "7"]).max_nodes == 7


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: enumtree")


def test_unknown_polynomial_is_usage_error(capsys):
    code, _, _ = run(capsys, "tree", "phi9", "--depth", "2")
    assert code == 2


# stdout SHA-256 of `--help` at 80 columns, for the top parser ("") and each command
HELP_SHA256 = {
    "": "3839eb6a249674dcfb0b5622291d9f42d3629f6d85d4d0913242f28459d486f5",
    "tree": "47ffdc7d73f492ee1171b0b80f613ea8d028410802f6269c99589de5de468b0e",
    "seq": "938df1c1000eecd8728ab1604712f4bfd6fdc3705aca6945a363a701ad56afdf",
    "inverse": "40fdf34e7026633c9f2e109f385a6de9e01bd26e5447e627251611053355026d",
    "fiber": "d2e8ec1ec7ba8a30bd9b6c9ee6425e3e0a7a28c7fd9023091fbf40cceff42888",
    "verify": "b5c288ef16bdd42d13dde3811b168ad6bc7e8a4bc8e6a268a172028163aedcee",
    "scan": "658105cada4924802888053b7bd5fbe653a7a4d63825f6750ad188f749b9049b",
    "stats": "c93a0048ffafc57c138a75829576c4c2986ffd1a156b267251f62b47b5c6bf84",
    "primerep": "f72bd5dec7a826f08072fcce662508589a9b5a4b274b76339a1feef08e05a3b5",
}

_TREE_USAGE = """\
usage: enumtree tree [-h] --depth DEPTH [--format {json,text}]
                     [--max-nodes MAX_NODES]
                     {phi0,phi1,psi2,phi3}
"""
_STATS_USAGE = """\
usage: enumtree stats [-h] --kmax KMAX [--format {text,json}]
                      [--max-nodes MAX_NODES]
                      {phi0,phi1,psi2,phi3}
"""
_CHOOSE_A_POLY = "(choose from 'phi0', 'phi1', 'psi2', 'phi3')"


@pytest.mark.parametrize("command", list(HELP_SHA256))
def test_help_text_is_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out, err = run(capsys, *([command] if command else []), "--help")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


@pytest.mark.parametrize("argv, expected", [
    ([], "usage: enumtree [-h] {tree,seq,inverse,fiber,verify,scan,stats,primerep} ...\n"
         "enumtree: error: the following arguments are required: command\n"),
    (["tree"], _TREE_USAGE
     + "enumtree tree: error: the following arguments are required: poly, --depth\n"),
    (["tree", "phi0"], _TREE_USAGE
     + "enumtree tree: error: the following arguments are required: --depth\n"),
    (["tree", "phi9", "--depth", "3"], _TREE_USAGE
     + f"enumtree tree: error: argument poly: invalid choice: 'phi9' {_CHOOSE_A_POLY}\n"),
    (["seq", "bogus"], "usage: enumtree seq [-h] --count COUNT [--format {bfile,json}]\n"
     "                    {phi0,phi1,psi2,phi3}\n"
     f"enumtree seq: error: argument poly: invalid choice: 'bogus' {_CHOOSE_A_POLY}\n"),
    (["verify", "nosuch"], "usage: enumtree verify [-h] [--bound BOUND]\n"
     "                       {bijectivity,tau,primality,recursions,rowsums,classification,"
     "prime-reps}\n"
     "enumtree verify: error: argument suite: invalid choice: 'nosuch' (choose from "
     "'bijectivity', 'tau', 'primality', 'recursions', 'rowsums', 'classification', "
     "'prime-reps')\n"),
])
def test_usage_errors_are_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (2, "", expected)


def test_inverse_worked_example(capsys):
    code, out, _ = run(capsys, "inverse", "phi1", "37", "100")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["word"] == "SSTSST"
    assert lines["matrix"] == "[[3, 4], [8, 11]]"
    assert lines["index"] == "100"
    assert lines["chain"] == (
        "(37, 100) (37, 26) (19, 26) (19, 7) (3, 7) (3, 1) (1, 1) (1, 0)"
    )


def test_inverse_root(capsys):
    code, out, _ = run(capsys, "inverse", "phi0", "1", "0")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["word"] == "(empty)" and lines["index"] == "1"


def test_inverse_bad_pair_exit(capsys):
    code, _, err = run(capsys, "inverse", "phi0", "3", "1")
    assert code == 3 and "does not divide" in err


def test_a_pair_component_out_of_range_exits_3(capsys):
    assert run(capsys, "inverse", "phi0", "0", "1") == (
        3, "", "error: first component must be an integer >= 1, got 0\n"
    )


def test_bad_pair_message_prints_when_f_n_is_too_long_to_print(capsys):
    # |f(n)| has 4,401 digits, beyond the int-to-str limit; m and n are not
    n = 10**2200 + 1
    code, out, err = run(capsys, "inverse", "phi0", "3", str(n))
    assert (code, out) == (3, "")
    assert err == f"error: 3 does not divide |f({n})| for f = x^2+1\n"


@pytest.mark.parametrize("name, m", [("phi0", "1"), ("psi2", "2")])
def test_word_too_long_to_allocate_exits_5(capsys, name, m):
    # the pair's word is S^(2^61 - 1) or longer: refused at once, not built
    code, out, err = run(capsys, "inverse", name, m, str(2**61 - 1))
    assert (code, out, err) == (5, "", "error: MemoryError\n")


@pytest.mark.parametrize("n, error", [
    ("12345678901234567", "MemoryError"),  # the index of (1, n) has n + 1 bits
    ("1000000000000000000000011", "too many digits in integer"),  # more than a shift takes
])
def test_fiber_index_too_long_to_allocate_exits_5(capsys, n, error):
    code, out, err = run(capsys, "fiber", "phi0", n)
    assert (code, out, err) == (5, "", f"error: {error}\n")


_STR_LIMIT_ERROR = (
    "error: Exceeds the limit (4300 digits) for integer string conversion; "
    "use sys.set_int_max_str_digits() to increase the limit\n"
)


@pytest.mark.parametrize("argv", [
    # the largest index of the fiber has more than 4,300 digits from n = 14,284 on
    "fiber phi0 15000",
    "fiber phi0 20000",
    # the index of S^20000 has more than 4,300 digits
    "inverse phi0 1 20000",
    # a row sum of row 13 has more than 4,300 digits; rows 0 .. 12 are 12 KB of text
    "stats phi1 --kmax 13",
], ids=["fiber", "fiber-20000", "inverse", "stats"])
def test_an_output_past_the_int_to_str_limit_exits_2(capsys, argv):
    # the refusal comes while the first write forms, so no part of the answer is written
    assert run(capsys, *argv.split()) == (2, "", _STR_LIMIT_ERROR)


def test_fiber_reports(capsys):
    code, out, _ = run(capsys, "fiber", "phi0", "3")
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert code == 0
    assert lines["indices"] == "5 6 8 15"
    assert lines["tau"] == "4"
    assert lines["verdict"] == "composite"

    code, out, _ = run(capsys, "fiber", "phi0", "1")
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["indices"] == "2 3" and lines["verdict"] == "prime"

    code, out, _ = run(capsys, "fiber", "phi0", "0")
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["indices"] == "1" and lines["tau"] == "1"
    assert "verdict" not in lines


def test_fiber_reduces_each_complementary_couple_once(capsys, monkeypatch):
    reduced, evaluated, inside_fiber = [], [], []
    passes, evaluate, fiber = sseq._passes, Poly.__call__, sseq.SSeqKernel.fiber

    def counted_fiber(kernel, n):
        before = len(evaluated)
        out = fiber(kernel, n)
        inside_fiber.append(len(evaluated) - before)
        return out

    monkeypatch.setattr(sseq, "_passes", lambda f, m, n, q: reduced.append(m) or passes(f, m, n, q))
    monkeypatch.setattr(Poly, "__call__", lambda f, n: evaluated.append(n) or evaluate(f, n))
    monkeypatch.setattr(sseq.SSeqKernel, "fiber", counted_fiber)
    code, out, _ = run(capsys, "fiber", "phi0", "97")  # 97^2 + 1 = 2 * 5 * 941
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert code == 0 and lines["tau"] == "8" and lines["verdict"] == "composite"
    assert sorted(reduced) == [1, 2, 5, 10]  # the min side of each couple m * q = 9410
    assert inside_fiber == [1]


def test_scan_flags_after_guard(capsys):
    code, out, _ = run(capsys, "scan", "--", "1", "5", "1", "--nmax", "10")
    assert code == 0
    assert "LEFT violation at (5, 3)" in out


def test_scan_flag_before_the_coefficients_past_the_guard(capsys):
    before = run(capsys, "scan", "--", "--nmax", "3", "1", "5", "1")
    after = run(capsys, "scan", "--", "1", "5", "1", "--nmax", "3")
    assert before == after and before[0] == 0 and "(5, 3)" in before[1]
    # without the guard argparse reads --nmax as its own, unknown, flag
    code, out, err = run(capsys, "scan", "--nmax", "3", "1", "5", "1")
    assert (code, out) == (2, "") and "unrecognized arguments: --nmax" in err


def test_scan_clean(capsys):
    code, out, _ = run(capsys, "scan", "--", "1", "0", "1", "--nmax", "100")
    assert code == 0 and "no violations up to n_max = 100" in out


def test_scan_vanishing_exit(capsys):
    code, _, err = run(capsys, "scan", "--", "-1", "1", "--nmax", "5")
    assert code == 4 and "vanishes at n = 1" in err


def test_scan_names_a_non_integer_nmax(capsys):
    code, out, err = run(capsys, "scan", "--", "1", "--nmax", "x")
    assert (code, out, err) == (2, "", "error: --nmax needs an integer, got 'x'\n")


def test_scan_refuses_a_negative_nmax(capsys):
    code, out, err = run(capsys, "scan", "--", "1", "5", "1", "--nmax", "-1")
    assert (code, out, err) == (2, "", "error: --nmax must be an integer >= 0, got -1\n")
    code, out, _ = run(capsys, "scan", "--", "1", "5", "1", "--nmax", "0")  # the least is valid
    assert (code, out) == (0, "no violations up to n_max = 0 for f = x^2+5x+1\n")


def test_stats_text_and_json(capsys):
    code, out, _ = run(capsys, "stats", "phi0", "--kmax", "2")
    assert code == 0
    assert out.splitlines() == [
        "k=0 M=1 N=0 R=0",
        "k=1 M=3 N=2 R=3/2",
        "k=2 M=13 N=10 R=9/2",
    ]
    code, out, _ = run(capsys, "stats", "phi0", "--kmax", "1", "--format", "json")
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[1] == {"k": 1, "m_sum": 3, "n_sum": 2, "ratio_sum": "3/2"}


def _no_row_walks(monkeypatch):
    # rows come from the cofactor shift (maps._int_rows) or the kernel's fills
    def walk(*args):
        raise AssertionError("a tree row was walked")

    monkeypatch.setattr(maps, "_int_rows", walk)
    monkeypatch.setattr(sseq.SSeqKernel, "_fill", walk)


def test_stats_refuses_before_any_row(capsys, monkeypatch):
    _no_row_walks(monkeypatch)
    code, out, err = run(capsys, "stats", "phi0", "--kmax", "5", "--max-nodes", "20")
    assert (code, out, err) == (2, "", "error: kmax 5 needs 63 nodes, budget is 20\n")
    code, out, err = run(capsys, "stats", "phi0", "--kmax", "-1")
    assert (code, out, err) == (2, "", "error: kmax must be an integer >= 0, got -1\n")
    code, out, err = run(capsys, "stats", "phi0", "--kmax", "21")
    assert (code, out, err) == (2, "", "error: kmax 21 needs 4194303 nodes, budget is 2097152\n")


def test_verify_rowsums_refuses_an_oversized_bound_before_any_row(capsys, monkeypatch):
    _no_row_walks(monkeypatch)
    code, out, err = run(capsys, "verify", "rowsums", "--bound", "30")
    assert (code, out) == (2, "")
    assert err == "error: bound 30 needs 2147483647 nodes, budget is 2097152\n"


def test_verify_recursions_refusal_names_its_bound(capsys, monkeypatch):
    _no_row_walks(monkeypatch)
    code, out, err = run(capsys, "verify", "recursions", "--bound", "21")
    assert (code, out) == (2, "")
    assert err == "error: bound 21 needs 4194303 nodes, budget is 2097152\n"


def test_each_depth_is_checked_once(capsys, monkeypatch):
    # every module that imports check_tree_size, so a call by any of its names counts
    calls, inner = [0], maps.check_tree_size

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    for module in (maps, sseq, cli, analytics):
        monkeypatch.setattr(module, "check_tree_size", counted)
    for f in ENUMERABLE_POLYS:
        calls[0] = 0
        kernel_for(f)
        assert calls[0] == 1, f.name  # its seed rows
    calls[0] = 0
    code, out, _ = run(capsys, "verify", "recursions")
    assert code == 0 and json.loads(out)["failures"] == []
    assert calls[0] == 8  # per tree, the bound of its tree walk and its kernel's seed row


def test_tree_refusal_names_its_depth(capsys):
    code, out, err = run(capsys, "tree", "phi0", "--depth", "21", "--format", "text")
    assert (code, out, err) == (2, "", "error: depth 21 needs 4194303 nodes, budget is 2097152\n")


@pytest.mark.parametrize(
    "argv, name, depth",
    [
        (["tree", "phi0", "--depth", "100000000000"], "depth", 100000000000),
        (["tree", "phi0", "--depth", "20000"], "depth", 20000),
        (["stats", "phi0", "--kmax", "3000000000"], "kmax", 3000000000),
        (["verify", "recursions", "--bound", "100000000000"], "bound", 100000000000),
        (["verify", "rowsums", "--bound", "100000000000"], "bound", 100000000000),
    ],
)
def test_an_oversized_depth_exits_2_before_any_work(capsys, monkeypatch, argv, name, depth):
    # the count 2^(depth + 1) - 1 is neither built nor printed in decimal
    _no_row_walks(monkeypatch)
    code, out, err = run(capsys, *argv)
    message = f"error: {name} {depth} needs 2^{depth + 1} - 1 nodes, budget is 2097152\n"
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize(
    "exc", [FactorLimitExceeded("rho schedule exhausted"), ArithmeticError("unreachable pair")]
)
def test_arithmetic_give_up_has_its_own_exit_code(capsys, monkeypatch, exc):
    def give_up(n):
        raise exc

    monkeypatch.setattr(arith, "factorize", give_up)
    code, out, err = run(capsys, "fiber", "phi0", "10")
    assert code == 5
    assert err == f"error: {exc}\n"
    assert "Traceback" not in err


def test_memory_error_without_text_exits_5_with_its_type_name(capsys, monkeypatch):
    def give_up(n):
        raise MemoryError()

    monkeypatch.setattr(arith, "factorize", give_up)
    code, out, err = run(capsys, "fiber", "phi0", "10")
    assert (code, err) == (5, "error: MemoryError\n")


def test_unexpected_exception_exits_70_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise KeyError("phi9")

    monkeypatch.setattr(cli, "_cmd_fiber", broken)
    code, out, err = run(capsys, "fiber", "phi0", "10")
    assert (code, out, err) == (70, "", "internal error: KeyError: 'phi9'\n")


def test_broken_pipe_still_reaches_console_main(monkeypatch):
    def closed(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_cmd_fiber", closed)
    with pytest.raises(BrokenPipeError):
        main(["fiber", "phi0", "10"])


_POLY_NAME = st.sampled_from(sorted(POLY_BY_NAME))
_HUGE = st.sampled_from([2**61 - 1, 10**30 + 1])
_OPERANDS = st.one_of(
    st.tuples(st.one_of(st.integers(-2, 60), _HUGE), st.one_of(st.integers(-2, 60), _HUGE)),
    st.tuples(st.sampled_from([1, 2, 5, 10, 13, 17]), st.integers(0, 8)),  # often pairs
    st.tuples(st.sampled_from([1, 2]), _HUGE),  # pairs whose words are too long to allocate
)


def _flag(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


@st.composite
def _cli_argv(draw):
    """argv of every command at small sizes; huge operands only for inverse and primerep."""
    command = draw(st.sampled_from(
        ["tree", "seq", "inverse", "fiber", "verify", "scan", "stats", "primerep"]
    ))
    fmt = {"tree": ("json", "text"), "seq": ("bfile", "json"), "stats": ("text", "json")}
    budget = _flag("--max-nodes", st.integers(-2, 200))
    if command in ("tree", "stats"):
        size = "--depth" if command == "tree" else "--kmax"
        rest = [draw(_POLY_NAME), size, str(draw(st.integers(-2, 6)))] + draw(budget)
    elif command == "seq":
        rest = [draw(_POLY_NAME), "--count", str(draw(st.integers(-2, 60)))]
    elif command in ("inverse", "primerep"):
        rest = [draw(_POLY_NAME), *map(str, draw(_OPERANDS))]
    elif command == "fiber":
        rest = [draw(_POLY_NAME), str(draw(st.integers(-2, 2000)))]
    elif command == "verify":
        suite = draw(st.sampled_from(sorted(_SUITES)))
        rest = [suite, "--bound", str(draw(st.integers(-2, 3)))]
    else:
        token = st.sampled_from([*map(str, range(-3, 4)), "--nmax", "x", "--"])
        rest = draw(st.sampled_from([["--"], []])) + draw(st.lists(token, max_size=5))
        rest += draw(_flag("--nmax", st.integers(-2, 8)))
    if command in fmt:
        rest += draw(_flag("--format", st.sampled_from(fmt[command])))
    return [command, *rest]


# ENUMTREE_MAX_NODES: unset (None), refused by argparse, refused by check_tree_size, or small
_BUDGET_ENV = st.one_of(
    st.sampled_from([None, "", "abc", "0", "-2"]), st.integers(1, 200).map(str)
)


@settings(derandomize=True, max_examples=300)
@given(_cli_argv(), _BUDGET_ENV)
def test_every_argv_gets_a_documented_exit_code(argv, budget):
    # hypothesis refuses a function-scoped monkeypatch, so patch.dict sets the variable
    env = {} if budget is None else {"ENUMTREE_MAX_NODES": budget}
    out, err = io.StringIO(), io.StringIO()
    with patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        if budget is None:
            os.environ.pop("ENUMTREE_MAX_NODES", None)
        code = main(argv)  # an escaping exception fails the test
    assert code in {0, 1, 2, 3, 4, 5}
    assert code != 1 or argv[0] == "verify"
    if code in (2, 3, 4, 5):
        assert out.getvalue() == ""


def _tree_nodes(f):
    """(index, m, n, word, row) of nodes 1 .. 2**11 - 1 of the tree of f, from the moves
    (int_tree_rows) and the oracle's breadth-first words, apart from the kernel and the
    word table."""
    words = iter(bfs_words(10))
    return [
        (k, m, n, next(words), r)
        for r, row in enumerate(int_tree_rows(f, 10))
        for k, (m, n) in enumerate(row, 1 << r)
    ]


_TREE_NODES = {f.name: _tree_nodes(f) for f in ENUMERABLE_POLYS}


def _stdout(*argv):
    """stdout of main(argv), which must exit 0; a hypothesis test takes no capsys."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@settings(derandomize=True, max_examples=100)
@given(
    st.sampled_from(ENUMERABLE_POLYS), st.integers(0, 9), st.integers(1, 1100),
    st.integers(1, 5), st.integers(1, 4), st.integers(1, 64),
)
def test_every_stream_format_shows_the_same_tree(f, depth, count, block, table, write):
    # the four streams of one tree at random sizes, and random block, word-table and
    # write sizes (all three read at call time): JSON and text tree, JSON and b-file seq
    nodes = _TREE_NODES[f.name]
    json_lines = [
        f'{{"index":{k},"m":{m},"n":{n},"word":"{word}","row":{r}}}\n'
        for k, m, n, word, r in nodes
    ]
    with patch.object(sseq, "_BLOCK_DEPTH", block), patch.object(
        cli, "_WORD_TABLE_DEPTH", table
    ), patch.object(cli, "_WRITE_BYTES", write):
        tree = _stdout("tree", f.name, "--depth", str(depth))
        text = _stdout("tree", f.name, "--depth", str(depth), "--format", "text")
        seq = _stdout("seq", f.name, "--count", str(count), "--format", "json")
        bfile = _stdout("seq", f.name, "--count", str(count))
    assert tree == "".join(json_lines[: (2 << depth) - 1])
    rows = [nodes[(1 << r) - 1 : (2 << r) - 1] for r in range(depth + 1)]
    assert text == "".join(
        "  " * r + "  ".join(f"({m}, {n})" for _, m, n, _, _ in row) + "\n"
        for r, row in enumerate(rows)
    )
    assert seq == "".join(json_lines[:count])
    assert bfile == "".join(f"{k} {n}\n" for k, _, n, _, _ in nodes[:count])


def test_primerep(capsys):
    code, out, _ = run(capsys, "primerep", "phi0", "113", "15")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["n-values"] == "1 15"
    assert lines["value"] == "113 = 226 / (2)"
    code, _, err = run(capsys, "primerep", "phi0", "10", "3")
    assert code == 3


def test_primerep_does_not_re_multiply_its_representation(capsys, monkeypatch):
    # the telescoping product is the theorem; verify prime-reps checks it, primerep does not
    def refused(rep):
        raise AssertionError("primerep multiplied its representation out")

    monkeypatch.setattr(analytics.PrimeRepresentation, "product", refused)
    assert run(capsys, "primerep", "phi0", "113", "98") == (0, (
        "p: 113\n"
        "n-values: 1 13 98\n"
        "form: p = |f(1)|^+1 * |f(13)|^-1 * |f(98)|^+1\n"
        "value: 113 = 2 * 9605 / (170)\n"
    ), "")


def test_verify_prime_reps_reports_a_representation_that_does_not_telescope(capsys, monkeypatch):
    # the suite multiplies each representation out and records a failure line where it is off
    product = analytics.PrimeRepresentation.product

    def off_at_29(rep):
        return product(rep) + (rep.p == 29)

    monkeypatch.setattr(analytics.PrimeRepresentation, "product", off_at_29)
    code, out, err = run(capsys, "verify", "prime-reps", "--bound", "50")
    summary = json.loads(out)
    assert (code, err, summary["checked"]) == (1, "", 13)  # 2, and 5, 13, ..., 41 with two roots each
    assert summary["failures"] == [
        "the chain of (29, 12) does not telescope to 29",
        "the chain of (29, 17) does not telescope to 29",
    ]


def test_primerep_refuses_a_strong_pseudoprime_to_bases_up_to_37(capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 divides f(n)
    code, out, err = run(
        capsys, "primerep", "phi0", "318665857834031151167461", "210775917077050784440256"
    )
    assert (code, out) == (3, "")
    assert err == "error: 318665857834031151167461 is not prime\n"


def test_primerep_refuses_the_least_strong_pseudoprime_to_bases_up_to_41(capsys):
    # 3317044064679887385961981 = 1287836182261 * 2575672364521 divides f(n)
    code, out, err = run(
        capsys, "primerep", "phi0", "3317044064679887385961981", "806966215798523717614900"
    )
    assert (code, out) == (3, "")
    assert err == "error: 3317044064679887385961981 is not prime\n"


# Landau primes p = n^2 + 1: the reduction of (p, n) is (p, n) by c_bar to (1, n), and by
# n letters T to the root, so the pair's index has n + 1 bits
_LANDAU = [("1000072001297", "1000036"), ("1208925819698192058418597", "1099511627814")]


@pytest.mark.parametrize("p, n", _LANDAU)
def test_primerep_answers_a_landau_prime_whose_word_is_n_letters(capsys, p, n):
    # n-values are read off the passes: no index or word of n + 1 bits is built
    assert run(capsys, "primerep", "phi0", p, n) == (0, (
        f"p: {p}\n"
        f"n-values: {n}\n"
        f"form: p = |f({n})|^+1\n"
        f"value: {p} = {p}\n"
    ), "")


def test_inverse_of_a_landau_pair_whose_word_is_too_long_exits_5(capsys):
    # the word of (p, n) is T^n with n = 1,099,511,627,814 letters: its index of n + 1 bits,
    # some 137 GB, is refused, not built; an address-space cap below it keeps the refusal
    # the same on a host that overcommits memory
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 64 << 30 if hard == resource.RLIM_INFINITY else min(64 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        result = run(capsys, "inverse", "phi0", *_LANDAU[1])
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert result == (5, "", "error: MemoryError\n")


def test_verify_suites_pass(capsys):
    for suite, bound in [
        ("tau", "60"),
        ("primality", "60"),
        ("recursions", "6"),
        ("rowsums", "12"),
        ("classification", "50"),
        ("prime-reps", "200"),
        ("bijectivity", "40"),
    ]:
        code, out, _ = run(capsys, "verify", suite, "--bound", bound)
        summary = json.loads(out)
        assert code == 0, summary
        assert summary["suite"] == suite
        assert summary["failures"] == []
        assert summary["checked"] > 0


def test_the_suites_trial_divisor_count_counts_a_square_root_once():
    # |f(n)| is a square only at n = 0 on the four trees, so the suites alone
    # do not reach the square case of their oracle
    assert [cli._tau_trial(v) for v in range(1, 500)] == [trial_tau(v) for v in range(1, 500)]


@pytest.mark.parametrize("suite", sorted(_SUITES))
def test_verify_refuses_a_negative_bound_in_every_suite(capsys, suite):
    code, out, err = run(capsys, "verify", suite, "--bound", "-1")
    assert (code, out, err) == (2, "", "error: bound must be an integer >= 0, got -1\n")
    code, out, _ = run(capsys, "verify", suite, "--bound", "0")  # the least bound is valid
    assert code == 0 and json.loads(out)["bound"] == 0


def test_bijectivity_suite_evaluates_f_once_per_n_besides_the_pair_checks(monkeypatch):
    # f(0) once per tree for its rows; per n, one f(n) for the divisors and the
    # trial count, then the own checks of make_pair and f_hat_inverse per divisor
    bound = 20
    expected = Counter({0: len(ENUMERABLE_POLYS)})
    for f in ENUMERABLE_POLYS:
        # kernel_for: f(n) while n <= d and f(n + 1) after each positive f(n), in its
        # search for d; then f(0) at the root of its seed rows
        d = kernel_for(f).start.bit_length() - 1
        expected[0] += 1
        for n in range(d + 1):
            expected[n] += 1
            expected[n + 1] += f.poly(n) > 0
        for n in range(1, bound + 1):
            expected[n] += 1 + 2 * trial_tau(abs(f.poly(n)))
    seen = []
    evaluate = Poly.__call__
    monkeypatch.setattr(Poly, "__call__", lambda g, n: seen.append(n) or evaluate(g, n))
    assert suite_failures("bijectivity", bound) == []
    assert Counter(seen) == expected


def test_verify_bijectivity_catches_a_mirrored_index_map(capsys, monkeypatch):
    # mirror_index is injective, so each fiber keeps tau(|f(n)|) distinct indices;
    # only the round trip from the index back to its pair sees the wrong node
    inner = maps._index
    monkeypatch.setattr(maps, "_index", lambda passes: mirror_index(inner(passes)))
    code, out, _ = run(capsys, "verify", "bijectivity", "--bound", "10")
    failures = json.loads(out)["failures"]
    assert code == 1 and failures
    assert failures[0] == "phi0: index 3 of (1, 1) holds (2, 1)"


def test_verify_bijectivity_reads_node_k_through_pair_at(capsys, monkeypatch):
    # the round trip reads node k off the kernel's public reader alone
    inner = sseq.SSeqKernel.pair_at

    def shifted(self, k):
        node = inner(self, k)
        return pairs._moved(node.m + 1, node.n, node.poly)

    monkeypatch.setattr(sseq.SSeqKernel, "pair_at", shifted)
    code, out, _ = run(capsys, "verify", "bijectivity", "--bound", "10")
    assert code == 1
    assert json.loads(out)["failures"][0] == "phi0: index 2 of (1, 1) holds (2, 1)"


def test_verify_bijectivity_reports_a_wrong_kernel_as_a_failure(capsys, monkeypatch):
    # a kernel one off in each value gives nodes that are no pairs, such as (2, 2) at
    # index 3 of x^2 + 1; pair_at builds them unchecked, so the suite reports them
    # (exit 1) and does not stop at a refusal (exit 3)
    triple = sseq.SSeqKernel._triple
    monkeypatch.setattr(sseq.SSeqKernel, "_triple", lambda self, k: [v + 1 for v in triple(self, k)])
    code, out, err = run(capsys, "verify", "bijectivity", "--bound", "10")
    summary = json.loads(out)
    assert (code, err) == (1, "")
    assert (summary["suite"], summary["bound"], summary["checked"]) == ("bijectivity", 10, 32878)
    assert summary["failures"][0] == "phi0: index 2 of (1, 1) holds (1, 2)"
    assert "phi0: index 3 of (2, 1) holds (2, 2)" in summary["failures"]


def test_verify_exits_5_with_no_summary_when_a_library_call_refuses(capsys, monkeypatch):
    # A refusal is the library giving up (exit 5, as in every command), not a failed
    # check (exit 1); the suite stops there, before its summary line.
    inner = maps._violation
    monkeypatch.setattr(
        maps, "_violation", lambda f, m, n, cof: inner(f, m, n, n + 1 if (m, n) == (5, 2) else cof)
    )
    message = (
        "error: pair (5, 2) of f = x^2+1 violates the reachability bound (min side);"
        " it cannot be reduced to the root\n"
    )
    assert run(capsys, "verify", "bijectivity", "--bound", "10") == (5, "", message)


def test_verify_recursions_reads_the_kernels_deep_blocks(capsys, monkeypatch):
    # at block depth 4 the pair rows past row 4 are filled from the tops _triple(j)
    default = run(capsys, "verify", "recursions")
    monkeypatch.setattr(sseq, "_BLOCK_DEPTH", 4)
    assert run(capsys, "verify", "recursions") == default
    assert hashlib.sha256(default[1].encode()).hexdigest() == dict(GOLDEN_VERIFY_SHA256)["recursions"]
    # a top one off in each value shifts every level below it; the four branches read
    # a fill from the seeds, which no top reaches
    triple = sseq.SSeqKernel._triple
    monkeypatch.setattr(sseq.SSeqKernel, "_triple", lambda self, k: [v + 1 for v in triple(self, k)])
    failures = suite_failures("recursions", 8)
    assert len(failures) == len(ENUMERABLE_POLYS) * 4  # rows 5..8 of each tree
    assert failures[0] == "phi0: row 5 of the kernel's pairs disagrees with the tree"


def test_outputs_are_deterministic(capsys):
    a = run(capsys, "tree", "phi1", "--depth", "5")
    b = run(capsys, "tree", "phi1", "--depth", "5")
    assert a == b
    a = run(capsys, "verify", "rowsums", "--bound", "8")
    b = run(capsys, "verify", "rowsums", "--bound", "8")
    assert a == b


def test_large_integers_serialized_as_strings(capsys):
    # row 60 boundary index is far beyond 2^53
    code, out, _ = run(capsys, "seq", "phi0", "--count", "3", "--format", "json")
    assert code == 0  # small values stay numeric
    recs = [json.loads(line) for line in out.splitlines()]
    assert isinstance(recs[0]["m"], int)

    from enumtree.cli import _json_lines

    (line,) = _json_lines([[]] * 60 + [[(2**54, 3)]])
    rec = json.loads(line)
    assert rec == {"index": str(2**60), "m": str(2**54), "n": 3, "word": "S" * 60, "row": 60}
    # the inline test switches at 2^53 for each value, line by line within a block
    lines = list(_json_lines([[], [(2**53 - 1, 2**53), (2**53, 2**53 - 1)]]))
    assert [json.loads(line) for line in lines] == [
        {"index": 2, "m": 2**53 - 1, "n": str(2**53), "word": "S", "row": 1},
        {"index": 3, "m": str(2**53), "n": 2**53 - 1, "word": "T", "row": 1},
    ]


def _json_line_oracle(index, m, n):
    def value(v):
        return v if v <= 2**53 - 1 else str(v)

    record = {"index": value(index), "m": value(m), "n": value(n),
              "word": index_to_word(index), "row": index.bit_length() - 1}
    return json.dumps(record, separators=(",", ":"))


@pytest.mark.parametrize("row, count", [
    (0, 1), (4, 16), (10, 1024), (10, 5), (11, 2048), (12, 1023), (12, 1025), (12, 4096),
    (52, 3), (53, 3), (70, 1030),
])
def test_json_lines_match_the_per_node_oracle(row, count):
    # words past row 10 come from a table of the first 10 letters and one word per block
    # of 2**10 lines; the pairs run out mid-row, at a block edge, or with the row
    rng = random.Random(row * count)
    pairs = [(rng.choice([1, 2**53 - 1, 2**53, 7**30]), rng.randrange(2**54)) for _ in range(count)]
    lines = list(cli._json_lines([[]] * row + [pairs]))  # rows 0 .. row - 1 empty
    assert lines == [_json_line_oracle(k, m, n) + "\n" for k, (m, n) in enumerate(pairs, 1 << row)]


@pytest.mark.parametrize("row", [3, 11])
def test_json_lines_stop_at_the_end_of_the_row(row):
    # pairs past the row's 2**row nodes make no line
    pairs = iter([(1, 0)] * ((1 << row) + 5))
    assert len(list(cli._json_lines([[]] * row + [pairs]))) == 1 << row


def test_results_unchanged_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(enumtree.__file__).parents[1]))

    def cli(*flags_and_argv):
        proc = subprocess.run(
            [sys.executable, *flags_and_argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    for argv in (
        ["verify", "recursions"],
        ["seq", "psi2", "--count", "64", "--format", "json"],
        # past the first fill: rows deeper than the block depth are filled again
        ["seq", "psi2", "--count", "40000", "--format", "bfile"],
        ["seq", "psi2", "--count", "40000", "--format", "json"],
        ["inverse", "phi1", "37", "100"],
        ["stats", "psi2", "--kmax", "8"],
    ):
        plain = cli("-m", "enumtree.cli", *argv)
        optimized = cli("-O", "-m", "enumtree.cli", *argv)
        assert plain[0] == 0 and optimized == plain, argv
    code, out = cli(
        "-O", "-c",
        "from enumtree.pairs import PHI0\n"
        "from enumtree.sseq import kernel_for\n"
        "try:\n    kernel_for(PHI0).s_value(0)\n"
        "except ValueError:\n    print('ValueError')\n",
    )
    assert (code, out) == (0, "ValueError\n")


# stdout SHA-256 of `tree <poly> --depth 13` and `seq <poly> --count 9000`,
# recorded from the output of the DivisorPair-per-node, print-per-line CLI.
# Text rows at depth 13 are wider than one write chunk.
GOLDEN_SHA256 = [
    ("tree", "phi0", "json", "249c331bfa182096682bd0374d8a21a0b09637b1ef57b3d4e195e6a631c4bbdc"),
    ("tree", "phi0", "text", "4a9a0e71951e35c03855b5122230f29b074983f472305a8e21223f099e02ad7f"),
    ("seq", "phi0", "bfile", "645f5a48648f549a73be7b28a68db60b498a0be36a6321d83aad3f096e5cb19d"),
    ("seq", "phi0", "json", "d7dc8db3911ae7186cf8f8d168dc1a2d6cd9a0605cc8cd127ec888c463281dcd"),
    ("tree", "phi1", "json", "6129557e852b36c46108eec790f73530c657f4d61faba06636d7d6036bb2bcee"),
    ("tree", "phi1", "text", "87bcfadacd04ea1e7f093ccc4328d402aa349a3f2b1976adb3245cc26265bb27"),
    ("seq", "phi1", "bfile", "2dde90ac2f8950aa134ba44ad6f23e62bbf66c5f01119ab00c65a0da7102d898"),
    ("seq", "phi1", "json", "bc853bc145b941d19c7c7429e044ca2fd239efd09452399b4e606ef8af18d100"),
    ("tree", "psi2", "json", "31587ef64d53d8777956d5f913fe86c24740c44134b8484c6446d93f468cc4f0"),
    ("tree", "psi2", "text", "0657cbade5e47d387c6c0a6ac29e17a7d97c170856e9b7919da27c5d5d4d3d5c"),
    ("seq", "psi2", "bfile", "a72e4a914c5a5894c04204dce7b2d3c7019b7c2b8faca4999206832dd62dfc5c"),
    ("seq", "psi2", "json", "fba674e3acc0bd2621f818a33627532a9424c49f338c515a5646a52c6c01f5e6"),
    ("tree", "phi3", "json", "b2325ad4391f428a4fe8c20324d67ed94043364900f10ae62f4a98603a6ae3cc"),
    ("tree", "phi3", "text", "4e0e8957960313bd90fcf0fd1aba3fb353b80031648088873a72fca0f6976682"),
    ("seq", "phi3", "bfile", "a1d11391ec13dc634a6ec1e46dc11f50fb02f104d22d520ada10d6218363b8b7"),
    ("seq", "phi3", "json", "fe90006b2f8ffcf1d385a153654034076daf2d547c0c97481a80e6dc634c5627"),
]


@pytest.mark.parametrize("command, name, fmt, digest", GOLDEN_SHA256)
def test_output_matches_golden_hash(capsys, command, name, fmt, digest):
    size = ["--depth", "13"] if command == "tree" else ["--count", "9000"]
    code, out, _ = run(capsys, command, name, *size, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout SHA-256 of `scan -- <coefficients> --nmax <n>`, recorded from the CLI
# that still built record __eq__/__hash__ with exec.
GOLDEN_SCAN_SHA256 = [
    (["1", "5", "1"], "60", "59a06e669684cdeeabb4ff3baf638e2edea9baaee45175daeea6d223c435cbd8"),
    (["-1", "1", "1"], "40", "7c4703bdfb4710bf2cd954ede77bffe2316248fefe2815029e9b2ad3f69fc008"),
    (["1", "0", "0", "1"], "30", "37d63d4ddbb6abb886b51b11eeaffe574d9f6e7b44884be9219abbfa477433dd"),
]


@pytest.mark.parametrize("coeffs, n_max, digest", GOLDEN_SCAN_SHA256)
def test_scan_matches_golden_hash(capsys, coeffs, n_max, digest):
    code, out, _ = run(capsys, "scan", "--", *coeffs, "--nmax", n_max)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout SHA-256 of `stats` and `fiber`, recorded from the CLI that summed
# every ratio n/m left to right and built the full inverse trace per divisor.
GOLDEN_STATS_SHA256 = [
    ("phi0", "12", "text", "641771363279211dbd85e109a520c7ef279c01f1d9e279484f080f3fcbf21b29"),
    ("phi0", "12", "json", "5a03135ad7a981516f3d8c46d3376d6bae00fc5c46bcf0076b95d76dba8d8252"),
    ("phi1", "12", "text", "580347d17b898ddf83a8311f48d62a53a85ae08dab29d675c5574f84895e0438"),
    ("phi1", "12", "json", "f15e9623a7b9a5b293e97292b4585330a49bbf342d1ffb2816f86627087f494f"),
    ("psi2", "12", "text", "46dd45e22d1042edb88541b009b0c405ef1f955305ec8675cb17104d50f4358a"),
    ("psi2", "12", "json", "07a4ddbb04169340f4da45556b87b5f854b792b7021836843d58667232482082"),
    ("phi3", "12", "text", "f53c6dbe18337e5463167e4b6fd501d335ca071c4acab42c6110fb070adf206e"),
    ("phi3", "12", "json", "b30cf1e21a1333d5b1320b7ab11b5e4c408317e98a9840835dfa77b80ef06bbf"),
    ("phi0", "14", "json", "411c198efe0d00a124377ce6ee94a826d419435d3fa2a2b5de8cd072c7a7cb26"),
    # recorded from the CLI that summed whole rows of maps.int_tree_rows; rows
    # 15..16 lie past the block depth, so they come from filled tops
    ("phi0", "16", "text", "e553953d620dac0877e7d58cc74385974a70212666a9e425e522a4d17bd71cfd"),
    ("phi0", "16", "json", "8a20fa0fa82b738489e9ab201160ba1af97a6be2504754fd5ec01117ed300ffd"),
]
GOLDEN_FIBER_SHA256 = [
    ("phi0", "10", "beccc80fd56d9d0d4bf9d0313d1b3ba1ebf93a0224b790454f12a992e6bf7be5"),
    ("phi0", "97", "84008265c8e1516ddd9c58069732a7494f96fe1c36e6e5e36eff6273ad367e39"),
    ("phi0", "1000", "cfdaf278d518df9fd1d32449d613c927d68f316b0566c257815adef4df10044c"),
    ("phi0", "3000", "e3b2e66f4f5af765d06ac1d66b9c010e38a5f76c5b80e80d11c0786a3f247473"),
    ("phi1", "10", "3911ad8e6d3b37c76e426cac44fa2555cc36ee40cd763a87b7fafc9ce9282003"),
    ("phi1", "97", "5d887a3c65964f9140eda819ba9d73ba2661af945fb20e89d3929975b2e0287d"),
    ("phi1", "1000", "32b42abde4a953603beb264e621e5c7da809a1fdb4eca787a61acfc6f1e20ecb"),
    ("phi1", "3000", "11a34a568e1727aa7c94b86c3fca585196d02cac77d4553e23f991f43caa8f9a"),
    ("psi2", "10", "ad58180ae3953d8386a952935f6fcdc5b488ca44cdabad1ea4165a95f271843b"),
    ("psi2", "97", "aea52a5681281e0d85bc2b17efed3f98afb82e725cbaf3aa1203f6019e28e012"),
    ("psi2", "1000", "7892d45544c9267fe14973e3a0ac909d790ca571999e02611eedd372b72f9c69"),
    ("psi2", "3000", "4c132c50f36e4250b0a7e0e3f716efb5c8205b12d9ef8ff033840253d082ab38"),
    ("phi3", "10", "4de18c3076b44e635e4aca8eadeeb67928df92b8549ca498a775f8f8e5a54edd"),
    ("phi3", "97", "a7aa3c40a4a9265a8d36bcfc4a4c4ce3dd18acca28f18bf94d5e7ac62282ea26"),
    ("phi3", "1000", "1c5db8a8192f874040b3b15a53e35dc6741ec69c759cf8bad439a74042758824"),
    ("phi3", "3000", "6c83c7aea450eae0396b8d67f40cff1334cacff7394ab334f1425bf14c32aea2"),
]


# stdout SHA-256 of `inverse <poly> m n` for the pair of one 2,000-letter word
# per tree, drawn from random.Random(seed), recorded from the CLI that formatted
# every chain pair with str() and reduced by evaluating f at each step.
GOLDEN_INVERSE_SHA256 = [
    ("phi0", 2000, "6655fb634076477bf951ef9a7f3ec9e46ea011c10e55878355584e9840fcb297"),
    ("phi1", 2001, "36ff7d4bba3fe9fa3c7d1cee620ea1e48aff35890f7eff6f6bc01c145c8459b9"),
    ("psi2", 2002, "17277e04ffa717290463578e1f896cf057d4af2b159614ffd3de4829a43f6398"),
    ("phi3", 2003, "caa5154245c1e9aee25cd6db13ae2cd8c5d549dc876b51188dbd419cae50a7a4"),
]


@pytest.mark.parametrize("name, seed, digest", GOLDEN_INVERSE_SHA256)
def test_inverse_matches_golden_hash(capsys, name, seed, digest):
    f = POLY_BY_NAME[name]
    word = index_to_word((1 << 2000) | random.Random(seed).getrandbits(2000))
    pair = f_hat(f, word_to_matrix(word))
    code, out, _ = run(capsys, "inverse", name, str(pair.m), str(pair.n))
    assert code == 0 and f"word: {word}\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _pair_of_random_word(name, length, seed):
    word = index_to_word((1 << length) | random.Random(seed).getrandbits(length))
    return f_hat(POLY_BY_NAME[name], word_to_matrix(word))


def _inverse_oracle(name, m, n):
    # the text every chain pair's str() joined gives, built from the library
    f = POLY_BY_NAME[name]
    trace = f_hat_inverse(f, make_pair(m, n, f))
    return (
        f"pair: {trace.pairs[0]}\nword: {trace.word or '(empty)'}\n"
        f"matrix: {word_to_matrix(trace.word)}\nindex: {trace.index}\n"
        "chain: " + " ".join(str(p) for p in trace.pairs) + "\n"
    )


@pytest.mark.parametrize("name", list(POLY_BY_NAME))
@pytest.mark.parametrize("length", [0, 1, 50, 3000])
def test_inverse_chain_text_matches_the_joined_str_oracle(capsys, name, length):
    # the 3,000-letter word's chain (~1,000-digit pairs) spans many writes
    pair = _pair_of_random_word(name, length, length)
    expected = _inverse_oracle(name, pair.m, pair.n)
    assert run(capsys, "inverse", name, str(pair.m), str(pair.n)) == (0, expected, "")


def test_inverse_converts_its_pair_to_decimal_once(capsys, monkeypatch):
    # the pair line and the chain's first part share one string from _chain_text
    pair = _pair_of_random_word("phi0", 50, 50)
    expected = _inverse_oracle("phi0", pair.m, pair.n)
    called = []
    monkeypatch.setattr(type(pair), "__str__", lambda p: called.append(p) or "?")
    assert run(capsys, "inverse", "phi0", str(pair.m), str(pair.n)) == (0, expected, "")
    assert called == []


def test_inverse_of_the_root_matches_the_joined_str_oracle(capsys):
    assert run(capsys, "inverse", "phi0", "1", "0") == (0, _inverse_oracle("phi0", 1, 0), "")


class _HashingSink:
    """A stdout that keeps only the SHA-256, the size, the largest write and the
    number of writes."""

    def __init__(self):
        self.digest, self.size, self.largest, self.writes = hashlib.sha256(), 0, 0, 0

    def write(self, text):
        self.digest.update(text.encode())
        self.size += len(text)
        self.largest = max(self.largest, len(text))
        self.writes += 1
        return len(text)

    def flush(self):
        pass


def test_inverse_output_memory_is_bounded(monkeypatch):
    # a 4,000-letter word: ~1,380-digit pair, 5.7 MB of chain text; the digest
    # was recorded from the CLI that joined the whole chain into one string
    pair = _pair_of_random_word("phi0", 4000, 4000)
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["inverse", "phi0", str(pair.m), str(pair.n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.size > 5_000_000
    assert sink.digest.hexdigest() == "df7473a6806d63a8705cf3b0b26ddcf7d1722a9f08c0ed40eca97e7442143337"
    assert peak < sink.size
    assert sink.largest <= 1 << 20


def test_each_output_chunk_is_one_write(monkeypatch):
    # 16,383 JSON lines, each write sized from its first line: 1 + 16384 // (len + 1)
    # lines, 278 from the 58-byte root on; each line carries its newline
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["tree", "phi0", "--depth", "13"]) == 0
    assert sink.digest.hexdigest() == GOLDEN_SHA256[0][3]
    assert (sink.writes, sink.largest) == (65, 20_900)


def _part_sizes(total, width):
    """total part sizes from 1 to width, log-uniform, seeded by the two."""
    rng = random.Random(total * width)
    return [round(width ** rng.random()) for _ in range(total)]


# ids total-width: total parts of log-uniform sizes 1..width, each part followed by its sep
@pytest.mark.parametrize("sizes, sep", [
    pytest.param(_part_sizes(1, 4096), " ", id="1-4096"),
    pytest.param(_part_sizes(4096, 4096), "\n", id="4096-4096"),
    pytest.param(_part_sizes(10_000, 4096), "  ", id="10000-4096"),
    pytest.param(_part_sizes(7, 3), " ", id="7-3"),
    pytest.param(_part_sizes(5, 1), "\n", id="5-1"),
    pytest.param([], "\n", id="none"),
    # 1 + 16384 // 4 = 4,097 parts per write
    pytest.param([3] * 10_000, "\n", id="even"),
    # a first part of 16,384 or 16,383 bytes: two parts; of 16,385 bytes: one part alone
    pytest.param([16_383, 1, 1, 1], " ", id="at-budget"),
    pytest.param([16_382, 1, 1, 1], " ", id="under-budget"),
    pytest.param([16_384, 1, 1, 1], " ", id="over-budget"),
    # a part past the budget alone; then 4,097 parts from a 4-byte part on, the rest
    pytest.param([40_000, 2, 40_000, 2, 2], "  ", id="huge"),
    # shrinking, as the inverse chain does
    pytest.param(sorted(_part_sizes(2_000, 5_000), reverse=True), " ", id="chain"),
])
def test_writer_joins_parts_as_given_sized_from_the_first_without_reading_ahead(
    monkeypatch, sizes, sep
):
    # each write holds 1 + 16384 // len(first) parts, joined as given, and at each write
    # every part pulled has been written
    parts = [chr(97 + i % 26) * size + sep for i, size in enumerate(sizes)]
    pulled, writes = [], []

    def pull():
        for part in parts:
            pulled.append(part)
            yield part

    class Sink:
        def write(self, text):
            writes.append((text, len(pulled)))

    monkeypatch.setattr(sys, "stdout", Sink())
    cli._write(pull())
    expected, written = [], 0
    while written < len(parts):
        chunk = parts[written : written + 1 + 16384 // len(parts[written])]
        written += len(chunk)
        expected.append(("".join(chunk), written))
    assert writes == expected
    assert "".join(text for text, _ in writes) == "".join(parts)


# stdout SHA-256 of `seq <poly> --count 200000`, recorded from the CLI that
# filled the whole prefix s(1..count), or s(1..2 * count + 1) for json, at once;
# rows 15..17 are deeper than one block.
GOLDEN_LONG_SEQ_SHA256 = [
    ("phi0", "bfile", "74fb81640e12c004d2ec6ea270feddeb57350c03872914d8d920d1146642263d"),
    ("phi0", "json", "98a5c7d5ef3a89d8c1320507200f9d59ae3ddc2d5076725a34b8baeb41e9b6ed"),
    ("phi1", "bfile", "4b687f6e730d7602e1f53eef03de9da50e74d3697f61d106ad71e6f57cef9bc3"),
    ("phi1", "json", "481453516124fe017794e8e03176f8fd86bd751a356ecb309638f0ea3991ba5b"),
    ("psi2", "bfile", "adf16a6109b17a6a3423c88aaa274718a631e335ea1e81fd29274258c0dd45bb"),
    ("psi2", "json", "0b084366e7e092ad557eb7f90e6500293f76c38d4a721411115fec3058de7731"),
    ("phi3", "bfile", "f1ca9699ec0f594e40935b6e361e4f5b6695e26abfd012f066caf3024dd47491"),
    ("phi3", "json", "0957ac128ebd6f926df377aa3dc7b872a0431f24d640daf6dc03349de65b7f53"),
]


@pytest.mark.parametrize("name, fmt, digest", GOLDEN_LONG_SEQ_SHA256)
def test_long_seq_matches_golden_hash(monkeypatch, name, fmt, digest):
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["seq", name, "--count", "200000", "--format", fmt]) == 0
    assert sink.digest.hexdigest() == digest


# stdout SHA-256 of `seq <poly> --count <n> --format json`, recorded from the CLI that
# called index_to_word per line and filled a second level of s for the pairs; the counts
# straddle row 10 (2^10 lines, a block of JSON words) and row 15 (past one 2^15 fill).
GOLDEN_SEQ_JSON_EDGE_SHA256 = [
    ("phi1", 1, "4a8c22f14d3f2af22f6b1608992d5f9e016acc13d53240153a964d0debf08eab"),
    ("phi1", 1023, "3fb19a384911f180c44829c3fa85b8cb792dfbf09b4abd0eb5613f1e46e31d64"),
    ("phi1", 1024, "d5cee753ec9e85f28dc84c2776056f2dd4dcd572baa30fc2a53027f62e189b01"),
    ("phi1", 1025, "91c7bbd0a6b43e85d9a03772660056f0a24ec2897f3aa7cf182b3ae23d63d6fc"),
    ("phi1", 3000, "c5501d879127caa475c5fd496e618ec2198b8384f05062a6543304a35ccea3fd"),
    ("phi1", 32767, "0926de3baa39eb2d6a1bf588da97f0dd0ad3922660146cc219fd4f538b772f20"),
    ("phi1", 32768, "3d7a9aecec22eb98018deab75ab340401b62a23b9718a01e4fed21b3201ce1cc"),
    ("phi1", 32769, "f8689b538894db10d7811e7cdf5657379bbf0f233dd86911748f2966d015ae7e"),
    ("psi2", 1, "4a8c22f14d3f2af22f6b1608992d5f9e016acc13d53240153a964d0debf08eab"),
    ("psi2", 1023, "8476a2ce0e17a4f39676d978634c890d71d373cb6e273ff7e4366aa2b1d398f0"),
    ("psi2", 1024, "14ef7290f5edae5adc24354c5eb2eef271ed503222716bdc467a6797c71938ee"),
    ("psi2", 1025, "9480c88c8e5324ce69a941e69769213d014d8b8ec52c7059dbe1d919f6ca1057"),
    ("psi2", 3000, "6d45d27938a83c7a559390944f7d40321747c9302fe895552311e3a47546ac4b"),
    ("psi2", 32767, "619577c62cc595e5070bc91c71f697622df0743bd095e99a2db6404999bf32d1"),
    ("psi2", 32768, "082753d16d9c6bbdeb88580f20bfe1f607b90468a14b15c3ca59c462675d5919"),
    ("psi2", 32769, "4791dd7ec099613d942e87b288a8f0c513ba17c39c91235d8771409651815d60"),
]


@pytest.mark.parametrize("name, count, digest", GOLDEN_SEQ_JSON_EDGE_SHA256)
def test_seq_json_at_the_word_and_block_edges_matches_golden_hash(monkeypatch, name, count, digest):
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["seq", name, "--count", str(count), "--format", "json"]) == 0
    assert sink.digest.hexdigest() == digest


# stdout SHA-256 of `tree <poly> --depth 17 --format text`, recorded from the CLI
# that walked the DivisorPair moves; rows 15..17 are deeper than one block.
GOLDEN_DEEP_TEXT_TREE_SHA256 = [
    ("phi0", "1f12d341d5c96e38d9beff71b8efeadd13bf7a0b9ce0bb6b71fe2547710ba48c"),
    ("phi1", "007a6576e3f0d108d98caf37d9c27d77acb5206d013cbd658e49ae6d96372f93"),
    ("psi2", "a9e5ae21b926f28e7df7cc6037d86b0224f5156dced7ef33cceca0be9e7e0686"),
    ("phi3", "4a991ec5a31ab14df9a60c82f7a13d937f166c946c34658d07ce6d8fc1611aa3"),
]


@pytest.mark.parametrize("name, digest", GOLDEN_DEEP_TEXT_TREE_SHA256)
def test_deep_text_tree_matches_golden_hash(monkeypatch, name, digest):
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["tree", name, "--depth", "17", "--format", "text"]) == 0
    assert sink.digest.hexdigest() == digest


# Full-size runs of the streamers, without tracemalloc: size and digest recorded
# from the CLI that built whole rows (tree: the DivisorPair moves, 46.6 MB traced
# peak) or filled the whole prefix (seq: 13.0 MB traced as a b-file, 25.7 MB as
# json).  Tree rows 15..18 and seq rows 15..17 and the first term of row 18 are
# deeper than one block.  The JSON trees of phi0 and psi2 (kernels that start at
# rows 0 and 1) were recorded from the CLI that walked the DivisorPair moves for them.
@pytest.mark.parametrize("argv, size, digest", [
    ("tree phi0 --depth 18 --format text", 9_481_181,
     "ff57569475eafe4bd364bb02f8920eeccb953c2d3b01e8744993bfa37ae10c56"),
    ("seq phi0 --count 262144 --format bfile", 3_477_618,
     "e1793cd8c2678a6740afecebbb026a84aa7f6553df32b961b2dcd4499c0ab3a0"),
    ("seq phi0 --count 262144 --format json", 19_125_495,
     "516435fc295741debb6fe07a9505b34b573974f249afd49b81caf2b62199517c"),
    ("tree phi0 --depth 17 --format json", 19_125_428,
     "bb4dc05ede36511039b47430cdbaf2f5184502188a39a0339189ec5c98b38200"),
    ("tree psi2 --depth 17 --format json", 19_191_556,
     "8526c1af4add299c1857fb29f98aa0f04d52d6e69175ac85ce937158f1f34169"),
], ids=["tree", "seq-bfile", "seq-json", "json-tree-phi0", "json-tree-psi2"])
def test_streamed_output_matches_its_size_and_digest(monkeypatch, argv, size, digest):
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv.split()) == 0
    assert (sink.size, sink.digest.hexdigest()) == (size, digest)


# The memory bounds run at block depth 6, on rows past depth 2 * 6 (where a tree
# row takes its tops from a row deeper than one block).  Streamed, the output
# chunks set the peak; with one block as deep as the output, or at the commit
# before each streamer, whole rows or the whole prefix are live and the same run
# exceeds its bound.  argv is parsed once before tracing, so the modules argparse
# imports on first use (gettext, locale; about 0.16 MB) count in no peak.
_SMALL_BLOCK_DEPTH = 6


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
    return digest.hexdigest()


def _peak_and_digest(monkeypatch, block, argv):
    """tracemalloc peak and stdout SHA-256 of main(argv) at sseq._BLOCK_DEPTH = block."""
    monkeypatch.setattr(sseq, "_BLOCK_DEPTH", block)
    cli.build_parser().parse_args(argv)
    sink = _HashingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, sink.digest.hexdigest()


def test_text_tree_memory_is_bounded(monkeypatch):
    # depth 14: 32,767 nodes, 0.5 MB of text; about 0.22 MB traced streamed in
    # writes of about 16 KB (0.63 MB in writes of 4,096 cells), 1.8 MB at block
    # depth 15 (rows 0..14 from one fill; 3.1 MB while pair rows filled the level
    # below too) and 3.1 MB at the commit before the streamer
    depth = 14
    expected = _sha256(
        "  " * r + "  ".join(map(str, row)) + "\n" for r, row in enumerate(tree_rows(PHI0, depth))
    )
    argv = ["tree", "phi0", "--depth", str(depth), "--format", "text"]
    streamed = _peak_and_digest(monkeypatch, _SMALL_BLOCK_DEPTH, argv)
    whole = _peak_and_digest(monkeypatch, depth + 1, argv)
    assert streamed[1] == whole[1] == expected
    assert streamed[0] < 400_000 < whole[0]


@pytest.mark.parametrize(
    "fmt, bound", [("bfile", 530_000), ("json", 300_000)], ids=["bfile", "json"]
)
def test_seq_memory_is_bounded(monkeypatch, fmt, bound):
    # 2^15 terms, to the first of row 15; about 0.44 / 0.19 MB traced streamed in
    # writes of about 16 KB (0.61 / 1.08 MB in writes of 4,096 lines; the b-file's
    # first write is 4,097 lines, sized from its 4-byte "1 0"; the json's 2^10 word
    # tails are 0.06 MB of it), 3.2 / 3.7 MB in one block (6.1 MB for json while pair
    # rows filled the level below too) and 2.2 / 4.2 MB at the commit before the streamer
    count = 1 << 15
    s = [0, *kernel_for(PHI0).s_prefix(2 * count + 1)]  # s[k] is s(k)
    ks = range(1, count + 1)
    if fmt == "bfile":
        expected = _sha256(f"{k} {s[k]}\n" for k in ks)
    else:
        expected = _sha256(json.dumps(
            {"index": k, "m": s[2 * k] - s[k], "n": s[k], "word": index_to_word(k),
             "row": k.bit_length() - 1}, separators=(",", ":")
        ) + "\n" for k in ks)
    argv = ["seq", "phi0", "--count", str(count), "--format", fmt]
    streamed = _peak_and_digest(monkeypatch, _SMALL_BLOCK_DEPTH, argv)
    whole = _peak_and_digest(monkeypatch, count.bit_length(), argv)
    assert streamed[1] == whole[1] == expected
    assert streamed[0] < bound < whole[0]


# stdout SHA-256 of `verify <suite>` at its default bound, recorded from the CLI
# that reduced every divisor of |f(n)| in full and ran Miller-Rabin on every
# cofactor left by trial division; pins the `checked` counts and no failures.
GOLDEN_VERIFY_SHA256 = [
    ("tau", "93a7e8149624d3da293b083b248c501eced7ff0cf2c71ae1827cb8da881c0659"),
    ("primality", "800e984b1025363b1a2b235e7526869bdcd1a98709958cb6a0fa4f00b173c892"),
    ("bijectivity", "f6abfd23cb233ce82107fcc79c77297c964c734669abdf46e647abaace4209ab"),
    ("classification", "533e6158c42ffe34914aac357b55b46d234d5569555b3a702e5b15c303e210e3"),
    # recorded from the CLI that summed each row as Fractions and ran all 13
    # Miller-Rabin rounds on every number
    ("recursions", "1d2bd81a5705eb53a7f8eea9967b3d7f23163a1c81025c2f030ccfebc57d20d6"),
    ("rowsums", "2c1f6f268eb27fb8267ac46800080c04399390b3e86466fc70847dbb3e07eb79"),
    ("prime-reps", "cc018262e2bc1690d5279abc8151cf89f5111400c89e854a14cc5cb139629539"),
]

# stdout SHA-256 of `primerep <poly> p n` for one 40-60-bit prime p per tree,
# recorded from the CLI that ran all 13 Miller-Rabin rounds on every number.
GOLDEN_PRIMEREP_SHA256 = [
    ("phi0", "541439316490469", "104191065201011", "95bef1805f2e684df842690f95121543593c3a3f4b520d570b5164316f7e55ce"),
    ("phi1", "1091840133673", "242984437591", "3b7abdfc326d4358ff4be6bf2e2ce40ad508eff991ffa949aabb82744b5970fd"),
    ("psi2", "62827833408401", "12643968686437", "cba1a10715f9159c490363298ec85d5ef44bdb9f738fad2de93e8afd80bfde86"),
    ("phi3", "2275903886629601", "586657393834509", "68488e016cce1f6d5a82c6390caf156265cf1df89eab5e951493315b814f2813"),
]


@pytest.mark.parametrize("name, p, n, digest", GOLDEN_PRIMEREP_SHA256)
def test_primerep_matches_golden_hash(capsys, name, p, n, digest):
    code, out, _ = run(capsys, "primerep", name, p, n)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("suite, digest", GOLDEN_VERIFY_SHA256)
def test_verify_matches_golden_hash(capsys, suite, digest):
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0 and json.loads(out)["failures"] == []
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_rowsums_past_the_doubled_block_depth_matches_golden_hash(capsys):
    # recorded from the CLI that summed whole rows of maps.int_tree_rows
    code, out, _ = run(capsys, "verify", "rowsums", "--bound", "16")
    assert code == 0 and json.loads(out)["failures"] == []
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ce934ad554e6325f0d78807b9eb8abe3920d8e3100db1edc3e361174a1559e55"
    )


@pytest.mark.parametrize("argv, digest", [
    ("stats phi0 --kmax 14", "d1b400d52ad6f5afb262e3daa1a4c8c258538ab09c9801653140fc069b57f4af"),
    ("verify rowsums", GOLDEN_VERIFY_SHA256[5][1]),
], ids=["stats", "verify-rowsums"])
def test_row_sums_memory_is_bounded(monkeypatch, argv, digest):
    # rows 0..14 of phi0 (verify rowsums' default bound): about 0.85 MB traced
    # streamed, 2.5 MB at block depth 15 (rows 0..14 from one fill; 3.7 MB while
    # pair rows filled the level below too) and 3.6 MB at the commit that summed
    # whole rows of maps.int_tree_rows
    streamed = _peak_and_digest(monkeypatch, _SMALL_BLOCK_DEPTH, argv.split())
    whole = _peak_and_digest(monkeypatch, 15, argv.split())
    assert streamed[1] == whole[1] == digest
    assert streamed[0] < 1_800_000 < whole[0]


@pytest.mark.parametrize("name, kmax, fmt, digest", GOLDEN_STATS_SHA256)
def test_stats_matches_golden_hash(capsys, name, kmax, fmt, digest):
    code, out, _ = run(capsys, "stats", name, "--kmax", kmax, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, n, digest", GOLDEN_FIBER_SHA256)
def test_fiber_matches_golden_hash(capsys, name, n, digest):
    code, out, _ = run(capsys, "fiber", name, n)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv", [["tree", "phi0", "--depth", "16"], ["seq", "phi0", "--count", "200000"]]
)
def test_closed_stdout_exits_cleanly(argv):
    with _cli_process(argv) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err


def test_interrupt_exits_130_without_a_traceback():
    # Ctrl-C once the tree has begun to stream: exit 130, as a shell reports SIGINT
    with _cli_process(["tree", "phi0", "--depth", "20"]) as proc:
        assert proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 130
    assert "Traceback" not in err.decode()


def _cli_process(argv):
    """The CLI on argv in a child process, stdout and stderr piped; `with` closes both."""
    env = dict(os.environ, PYTHONPATH=str(Path(enumtree.__file__).parents[1]))
    return subprocess.Popen(
        [sys.executable, "-m", "enumtree.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )


def test_only_main_maps_failures_to_exit_codes():
    tree = ast.parse((Path(enumtree.__file__).parent / "cli.py").read_text())
    commands = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    assert len(commands) == 8
    assert [c.name for c in commands if any(isinstance(n, ast.Try) for n in ast.walk(c))] == []


def test_only_write_touches_stdout():
    # commands return their parts; _write, called by main alone, is the one stdout writer,
    # and every print goes to stderr
    tree = ast.parse((Path(enumtree.__file__).parent / "cli.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for function in functions:
        for node in ast.walk(function):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                assert [ast.unparse(k) for k in node.keywords] == ["file=sys.stderr"], function.name
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.stdout.write":
                assert function.name == "_write"
    callers = [
        function.name for function in functions for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_write"
    ]
    assert callers == ["main"]


def test_cli_never_names_the_kernels_digit_walk():
    # node k is read through SSeqKernel.pair_at, the one public reader of a tree node
    tree = ast.parse((Path(enumtree.__file__).parent / "cli.py").read_text())
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
    assert "pair_at" in names and "_triple" not in names


def test_only_build_parser_reads_the_environment():
    # ENUMTREE_MAX_NODES enters as the default of --max-nodes, read once when the parser is built
    def environ(node):
        return [
            n for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and ast.unparse(n) == "os.environ"
        ]

    tree = ast.parse((Path(enumtree.__file__).parent / "cli.py").read_text())
    parser = next(node for node in tree.body if getattr(node, "name", None) == "build_parser")
    assert len(environ(tree)) == len(environ(parser)) == 1


def test_verify_suites_yield_to_the_one_tally_of_cmd_verify():
    # each suite yields its counts and failure lines; only _cmd_verify sums and collects them
    tree = ast.parse((Path(enumtree.__file__).parent / "cli.py").read_text())
    suites = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_suite_")
    ]
    assert sorted(s.name for s in suites) == sorted(f"_suite_{n.replace('-', '_')}" for n in _SUITES)
    for suite in suites:
        nodes = list(ast.walk(suite))
        assert any(isinstance(n, ast.Yield) for n in nodes), suite.name
        assert not any(isinstance(n, ast.Try) for n in nodes), suite.name
        assert not any(isinstance(n, ast.Return) and n.value is not None for n in nodes), suite.name


def test_one_check_refuses_a_bounded_integer_argument():
    # _record.at_least alone writes the "must be an integer >=" refusal; no module spells
    # out a range test of its own in that shape
    src = Path(enumtree.__file__).parent
    found = [
        (path.name, i)
        for path in sorted(src.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"must be (an integer )?>=", line)
    ]
    lines, start = inspect.getsourcelines(_record.at_least)
    inside = [(name, i) for name, i in found if name == "_record.py" and 0 <= i - start < len(lines)]
    assert len(inside) == 1 and found == inside


def test_library_has_no_assert_statements():
    # Guards must be explicit raises: `python -O` strips assert statements.
    src = Path(enumtree.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
