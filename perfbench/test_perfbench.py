"""Tests for the benchmark's own logic: summaries, tracing, inputs and checks."""

import json
import subprocess
import sys
from pathlib import Path

from perfbench import checks, oracle, workloads
from perfbench.run import judge, tail_latency
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

# `enumtree inverse phi1 37 100`, the paper's worked example.
WORKED_INVERSE = (
    "pair: (37, 100)\n"
    "word: SSTSST\n"
    "matrix: [[3, 4], [8, 11]]\n"
    "index: 100\n"
    "chain: (37, 100) (37, 26) (19, 26) (19, 7) (3, 7) (3, 1) (1, 1) (1, 0)\n"
)
# `enumtree tree phi0 --depth 2`.
TREE_PHI0_DEPTH2 = (
    '{"index":1,"m":1,"n":0,"word":"","row":0}\n'
    '{"index":2,"m":1,"n":1,"word":"S","row":1}\n'
    '{"index":3,"m":2,"n":1,"word":"T","row":1}\n'
    '{"index":4,"m":1,"n":2,"word":"SS","row":2}\n'
    '{"index":5,"m":5,"n":3,"word":"TS","row":2}\n'
    '{"index":6,"m":2,"n":3,"word":"ST","row":2}\n'
    '{"index":7,"m":5,"n":2,"word":"TT","row":2}\n'
)


def _tree_op(depth=2, fmt="json"):
    return workloads._tree_op("phi0", depth, fmt)


# ----------------------------------------------------------------------
# the tail-percentile rule
# ----------------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(200, 0, -1)]
    value, pct, n = tail_latency(values)
    assert (value, pct, n) == (190.0, 95.0, 200)
    assert sum(v > value for v in values) == 10


def test_tail_needs_eleven_samples():
    assert tail_latency([1.0] * 10) is None
    value, pct, n = tail_latency([float(v) for v in range(1, 12)])
    assert (value, n) == (1.0, 11) and abs(pct - 100 / 11) < 1e-9


# ----------------------------------------------------------------------
# self time on synthetic nested spans
# ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(1.0)

    leaf = tracer.wrap("pairs.s_bar", "pairs", leaf, span=False)

    def inner():
        clock.advance(2.0)
        leaf()
        leaf()
        clock.advance(3.0)

    inner = tracer.wrap("maps.f_hat_inverse", "maps", inner, span=True)

    def outer():
        clock.advance(5.0)
        inner()
        clock.advance(7.0)
        inner()
        return "done"

    outer = tracer.wrap("cli.main", "cli", outer, span=True)
    result, wall, by_layer = tracer.run_op(0, outer)

    assert result == "done"
    assert wall == 5 + 7 + 2 * (2 + 2 + 3)
    assert tracer.self_s["pairs.s_bar"] == 4.0
    assert tracer.self_s["maps.f_hat_inverse"] == 10.0
    assert tracer.self_s["cli.main"] == 12.0
    assert tracer.incl_s["maps.f_hat_inverse"] == 14.0
    assert by_layer == {"bench": 0.0, "cli": 12.0, "maps": 10.0, "pairs": 4.0}
    assert sum(by_layer.values()) == wall
    # Spans: the op, cli.main, two inverse calls; leaf calls are counted only.
    names = [span[0] for span in tracer.spans]
    assert names == ["bench.op", "cli.main", "maps.f_hat_inverse", "maps.f_hat_inverse"]
    assert [span[3] for span in tracer.spans] == [None, 0, 1, 1]
    assert {span[4] for span in tracer.spans} == {0}
    assert tracer.calls["pairs.s_bar"] == 4


def test_recursive_calls_count_inclusive_time_once():
    clock = FakeClock()
    tracer = Tracer(clock)

    def s_value(k):
        clock.advance(1.0)
        return 0 if k == 0 else s_value(k - 1)

    s_value = tracer.wrap("sseq.s_value", "sseq", s_value, span=False)
    tracer.run_op(0, s_value, 3)
    assert tracer.calls["sseq.s_value"] == 4
    assert tracer.incl_s["sseq.s_value"] == 4.0
    assert tracer.self_s["sseq.s_value"] == 4.0


def test_traced_runner_accounts_for_operation_wall(tmp_path):
    out, spans = tmp_path / "op.out", tmp_path / "spans.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.runner", "traced", str(out), str(ROOT / "src"), str(spans)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT), "PATH": ""},
    )
    reply_text, _ = proc.communicate(json.dumps({"argv": ["tree", "phi0", "--depth", "2"], "op": 0}) + "\n",
                                     timeout=60)
    reply, summary = (json.loads(line) for line in reply_text.splitlines())
    assert proc.returncode == 0 and reply["rc"] == 0
    assert out.read_text() == TREE_PHI0_DEPTH2
    assert abs(sum(reply["self_by_layer"].values()) - reply["wall_s"]) < 1e-9
    assert summary["counts"]["maps.tree_rows.nodes"] == 7
    # Each of the 3 inner nodes calls s_bar and t_bar; t_bar calls c_bar,
    # s_bar, c_bar through the same wrapped names.
    calls = summary["calls"]
    assert (calls["pairs.s_bar"], calls["pairs.t_bar"], calls["pairs.c_bar"]) == (6, 3, 6)
    assert summary["calls"]["monoid.index_to_word"] == 7
    assert spans.read_text().count("\n") == summary["spans"]


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


def test_paper_prefix_and_worked_example():
    assert oracle.s_prefix("phi0", 15)[1:] == [0, 1, 1, 2, 3, 3, 2, 3, 7, 8, 5, 5, 8, 7, 3]
    assert oracle.word_to_matrix("SSTSST") == (3, 4, 8, 11)
    assert oracle.matrix_to_pair("phi1", (3, 4, 8, 11)) == (37, 100)
    assert oracle.word_to_index("SSTSST") == 100
    assert oracle.index_to_word(100) == "SSTSST"


def test_workloads_are_seeded_and_fiber_draw_straddles_the_limit():
    first = workloads.build("query", 7, 20)
    assert first == workloads.build("query", 7, 20)
    assert first != workloads.build("query", 8, 20)
    fiber_ns = [op["expect"]["n"] for op in first if op["kind"] == "fiber"]
    assert min(fiber_ns) < 14_300 < max(fiber_ns) <= workloads.FIBER_N_MAX
    for op in first:
        if op["kind"] == "primerep":
            p, n = op["expect"]["p"], op["expect"]["n"]
            assert oracle.is_prime_trial(p) if p < 10**12 else oracle.is_prime_mr(p)
            assert 0 <= n < p and oracle.absf(op["expect"]["poly"], n) % p == 0


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def test_checkers_accept_worked_examples():
    op = {"kind": "inverse", "items": 1,
          "expect": {"poly": "phi1", "m": 37, "n": 100, "word": "SSTSST"}}
    assert checks.check(op, WORKED_INVERSE.encode()) == (None, 1)
    assert checks.check(_tree_op(), TREE_PHI0_DEPTH2.encode()) == (None, 7)
    seq = workloads._seq_op("phi0", 15, "bfile")
    bfile = "".join(f"{k} {v}\n" for k, v in enumerate([0, 1, 1, 2, 3, 3, 2, 3, 7, 8, 5, 5, 8, 7, 3], 1))
    assert checks.check(seq, bfile.encode()) == (None, 15)
    stats = workloads._stats_op("phi0", 3, "text")
    rows = "k=0 M=1 N=0 R=0\nk=1 M=3 N=2 R=3/2\nk=2 M=13 N=10 R=9/2\nk=3 M=59 N=46 R=21/2\n"
    assert checks.check(stats, rows.encode()) == (None, 15)


def test_corrupted_line_is_counted_as_failed(tmp_path):
    out = tmp_path / "op.out"
    ok = {"rc": 0, "stderr": ""}
    out.write_text(TREE_PHI0_DEPTH2)
    assert judge(_tree_op(), ok, out)[0] == "ok"
    out.write_text(TREE_PHI0_DEPTH2.replace('"m":5,"n":3', '"m":4,"n":3'))
    verdict, reason, items = judge(_tree_op(), ok, out)
    assert verdict == "wrong" and "4" in reason and items == 0
    out.write_text(WORKED_INVERSE.replace("SSTSST", "SSTSTS"))
    op = {"kind": "inverse", "items": 1,
          "expect": {"poly": "phi1", "m": 37, "n": 100, "word": "SSTSST"}}
    assert judge(op, ok, out)[0] == "wrong"


def test_nonzero_exit_is_a_failure_not_a_wrong_answer(tmp_path):
    out = tmp_path / "op.out"
    out.write_text("")
    res = {"rc": 2, "stderr": "error: Exceeds the limit (4300 digits)\n"}
    fiber = {"kind": "fiber", "items": 1, "expect": {"poly": "phi0", "n": 20000}}
    assert judge(fiber, res, out) == ("failed", "exit 2: error: Exceeds the limit (4300 digits)", 0)
    verify = workloads._verify_op("tau")
    assert judge(verify, {"rc": 1, "stderr": ""}, out)[0] == "wrong"
