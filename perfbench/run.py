"""Benchmark for the enumtree CLI: seeded workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload stream|query|analyze --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program under test is ``src/enumtree``.

``--trace 0`` runs the workload's operations against the real CLI
(``python -m enumtree.cli``), one child process at a time in a closed loop
with a single client, checks every output and reports the end-to-end
metrics.  ``--trace 1`` replays the same operations in-process through
``enumtree.cli.main(argv)``, once plain and once with every public function
wrapped (see ``tracer.py``), and reports the per-layer metrics.  Metric names
and units come from BENCHMARK.json; ``layers.json`` says which end-to-end
metric each layer metric should move on which workload.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A run record with the
per-operation stdout digests goes to ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import checks, workloads  # noqa: E402
from perfbench.tracer import LAYERS  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CLI = ["-m", "enumtree.cli"]
SETUP_REPEATS = 15  # spread evenly over the passes
IMPORT_REPEATS = 5
WARMUP_S = 1.0
# Seconds the runner's probe loop takes at the reference host speed, and how
# many probes on each side of an invocation's own probe set its speed factor.
REF_PROBE_S = 0.005
PROBE_WINDOW = 2


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------


def tail_latency(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples) at the highest percentile that has at
    least ten samples beyond it; None with fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def import_ms(importtime_stderr: str) -> float:
    """Cumulative import time of the top-level enumtree modules, in ms."""
    total_us = 0
    for line in importtime_stderr.splitlines():
        found = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\S.*)$", line)
        if found and found.group(2).startswith("enumtree"):
            total_us += int(found.group(1))
    return total_us / 1000.0


def judge(op: dict, res: dict, out_path: Path) -> tuple[str, str | None, int]:
    """("ok" | "wrong" | "failed", reason, items) for one finished operation.

    "wrong" is a wrong answer: exit 0 with output that fails its check, or a
    verify suite that reports failures.  "failed" is any other nonzero exit.
    """
    if res["rc"] == 0:
        error, items = checks.check(op, out_path.read_bytes())
        return ("wrong", error, 0) if error else ("ok", None, items)
    last = res["stderr"].strip().splitlines()[-1:] or [""]
    reason = f"exit {res['rc']}: {last[0][:200]}"
    if op["kind"] == "verify" and res["rc"] == 1:
        return "wrong", reason, 0
    return "failed", reason, 0


# ----------------------------------------------------------------------
# the runner process
# ----------------------------------------------------------------------


class Runner:
    """A ``perfbench.runner`` child that executes one request at a time."""

    def __init__(self, mode: str, out_file: Path, *extra: str):
        env = dict(os.environ, PYTHONPATH=str(ROOT))
        env.pop("ENUMTREE_MAX_NODES", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.runner", mode, str(out_file), str(SRC), *extra],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
            cwd=ROOT,
        )

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("benchmark runner exited early")
        return json.loads(line)

    def finish(self) -> str:
        """Close the request stream; return what the runner printed last."""
        self.proc.stdin.close()
        rest = self.proc.stdout.read()
        if self.proc.wait(timeout=60) != 0:
            raise RuntimeError(f"benchmark runner exited with {self.proc.returncode}")
        return rest

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


# ----------------------------------------------------------------------
# end to end (--trace 0)
# ----------------------------------------------------------------------


def end_to_end(ops: list[dict], out_file: Path) -> tuple[dict, list[dict], dict]:
    """PASSES passes over ops against the CLI; per-operation medians.

    The first pass checks every output; later passes must reproduce its
    digest and exit code.  The host's speed drifts by up to a third over
    seconds to minutes (other tenants share it), moving process start-up and
    computation alike.  So the runner times a fixed pure-Python probe before
    every invocation, while nothing else runs, and each time is scaled by
    REF_PROBE_S over the median of that probe and the PROBE_WINDOW probes on
    either side: the metrics are seconds at the host speed where the probe
    takes REF_PROBE_S.  Raw figures go to the run record.
    """
    seq: list[dict] = []  # every invocation, in the order run

    def ask(args: list[str], op: int = -1) -> dict:
        res = runner.ask({"args": args})
        res["op"] = op
        seq.append(res)
        return res

    def help_() -> dict:
        res = ask(CLI + ["--help"])
        if res["rc"] != 0 or not out_file.read_bytes().startswith(b"usage: enumtree"):
            raise RuntimeError(f"enumtree --help failed: {res['stderr'][-300:]}")
        return res

    samples: list[list[dict]] = [[] for _ in ops]
    table: list[dict] = []
    setup: list[dict] = []
    with Runner("cli", out_file) as runner:
        # The first call compiles bytecode, which users pay once; then keep
        # the vCPU busy for a moment, as an idle one runs slow at first.
        warm_until = time.perf_counter() + WARMUP_S
        while time.perf_counter() < warm_until:
            help_()
        bare = [ask(["-c", "pass"]) for _ in range(5)]
        for p in range(workloads.PASSES):
            setup += [help_() for _ in range(SETUP_REPEATS // workloads.PASSES)]
            for i, op in enumerate(ops):
                res = ask(CLI + op["argv"], i)
                samples[i].append(res)
                if p == 0:
                    table.append(_row(i, op, res, *judge(op, res, out_file)))
                elif (res["rc"], res["sha256"]) != (table[i]["rc"], table[i]["sha256"]):
                    table[i].update(verdict="wrong", reason=f"pass {p} output differs from pass 0")
        runner.finish()

    probes = [res["probe_s"] for res in seq]
    for j, res in enumerate(seq):
        res["speed"] = REF_PROBE_S / statistics.median(
            probes[max(0, j - PROBE_WINDOW) : j + PROBE_WINDOW + 1]
        )
    for row, runs in zip(table, samples):
        row["raw_wall_s"] = statistics.median(r["wall_s"] for r in runs)
        row["wall_s"] = statistics.median(r["wall_s"] * r["speed"] for r in runs)
        row["cpu_s"] = statistics.median(r["cpu_s"] * r["speed"] for r in runs)
        row["maxrss_kb"] = max(r["maxrss_kb"] for r in runs)
    # An operation's latency is the median of its passes.
    latencies = [row["wall_s"] for row in table]
    wall = sum(latencies)
    tail = tail_latency(latencies)
    if tail is None:
        raise RuntimeError(f"{len(latencies)} operations are too few for a tail percentile")
    metrics = {
        "setup_s": statistics.median(r["wall_s"] * r["speed"] for r in setup),
        "wall_s": wall,
        "cpu_s": sum(row["cpu_s"] for row in table),
        "items_per_s": sum(row["items"] for row in table) / wall,
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail[0],
        "peak_rss_mb": max(row["maxrss_kb"] for row in table) / 1024.0,
    }
    info = {
        "passes": workloads.PASSES,
        "host_speed_median": statistics.median(res["speed"] for res in seq),
        "raw_setup_s": statistics.median(r["wall_s"] for r in setup),
        "raw_wall_s": sum(row["raw_wall_s"] for row in table),
        "raw_bare_python_s": statistics.median(r["wall_s"] for r in bare),
        "setup_samples": len(setup),
        "op_tail_percentile": tail[1],
        "op_tail_samples": tail[2],
        # [operation (-1: --help or bare python), wall, cpu, probe], in run order
        "invocations": [[r["op"], r["wall_s"], r["cpu_s"], r["probe_s"]] for r in seq],
    }
    return metrics, table, info


def _row(i: int, op: dict, res: dict, verdict: str, reason: str | None, items: int) -> dict:
    return {
        "op": i,
        "argv": op["argv"],
        "verdict": verdict,
        "reason": reason,
        "items": items,
        **{k: v for k, v in res.items() if k not in ("stderr", "self_by_layer")},
    }


# ----------------------------------------------------------------------
# per layer (--trace 1)
# ----------------------------------------------------------------------


def traced(ops: list[dict], out_file: Path, spans_file: Path) -> tuple[dict, list[dict], dict]:
    """Import timing, then one plain and one traced in-process replay.

    Times are scaled to the reference host speed as in end_to_end, with one
    factor per replay: the median of its probes.
    """
    with Runner("cli", out_file) as runner:
        runner.ask({"args": CLI + ["--help"]})
        imports = [
            runner.ask({"args": ["-X", "importtime", "-c", "import enumtree.cli"]})
            for _ in range(IMPORT_REPEATS)
        ]
        runner.finish()

    with Runner("inproc", out_file) as runner:
        plain = [runner.ask({"argv": op["argv"]}) for op in ops]
        runner.finish()

    table = []
    cover = []
    with Runner("traced", out_file, str(spans_file)) as runner:
        for i, op in enumerate(ops):
            res = runner.ask({"argv": op["argv"], "op": i})
            verdict, reason, items = judge(op, res, out_file)
            if verdict == "ok" and res["sha256"] != plain[i]["sha256"]:
                verdict, reason = "wrong", "traced stdout differs from the untraced replay"
            table.append(_row(i, op, res, verdict, reason, items))
            by_layer = res["self_by_layer"]
            cover.append((res["wall_s"], sum(by_layer.values()), by_layer))
        summary = json.loads(runner.finish())

    speed = _speed(table)
    metrics = {
        name: value * speed if name.endswith((".s", "self_s")) else value
        for name, value in layer_metrics(summary, table, cover).items()
    }
    metrics["cli.import_ms"] = _speed(imports) * statistics.median(
        import_ms(res["stderr"]) for res in imports
    )
    plain_wall = sum(res["wall_s"] for res in plain)
    traced_wall = sum(row["wall_s"] for row in table)
    metrics["trace.overhead_frac"] = (traced_wall * speed) / (plain_wall * _speed(plain)) - 1.0
    info = {
        "spans": summary["spans"],
        "raw_untraced_wall_s": plain_wall,
        "raw_traced_wall_s": traced_wall,
        "worst_op_accounting_gap_s": max(abs(wall - total) for wall, total, _ in cover),
    }
    return metrics, table, info


def _speed(results: list[dict]) -> float:
    return REF_PROBE_S / statistics.median(res["probe_s"] for res in results)


def layer_metrics(summary: dict, table: list[dict], cover: list) -> dict:
    calls, self_s = summary["calls"], summary["self_s"]
    incl, counts = summary["incl_s"], summary["counts"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def i(name):
        return incl.get(name, 0.0)

    traced_wall = sum(wall for wall, _, _ in cover)
    out = {
        "pairs.moves.calls": c("pairs.s_bar") + c("pairs.t_bar") + c("pairs.c_bar"),
        "pairs.moves.s": i("pairs.moves"),
        "pairs.make_pair.calls": c("pairs.make_pair"),
        "maps.tree_rows.nodes": counts.get("maps.tree_rows.nodes", 0),
        "maps.tree_rows.s": i("maps.tree_rows"),
        "monoid.index_to_word.calls": c("monoid.index_to_word"),
        "monoid.index_to_word.s": i("monoid.index_to_word"),
        "cli.main.calls": c("cli.main"),
        "cli.main.self_s": s("cli.main"),
        "cli.bytes_out": sum(row["bytes"] for row in table),
        "cli.lines_out": sum(row["lines"] for row in table),
        "sseq.s_prefix.terms": counts.get("sseq.s_prefix.terms", 0),
        "sseq.s_prefix.s": i("sseq.s_prefix"),
        "sseq.s_value.calls": c("sseq.s_value"),
        "sseq.s_value.s": i("sseq.s_value"),
        "sseq.fiber.calls": c("sseq.fiber"),
        "sseq.fiber.self_s": s("sseq.fiber"),
        "maps.f_hat_inverse.calls": c("maps.f_hat_inverse"),
        "maps.f_hat_inverse.self_s": s("maps.f_hat_inverse"),
        "maps.inverse.steps": counts.get("maps.inverse.steps", 0),
        "maps.inverse.word_letters": counts.get("maps.inverse.word_letters", 0),
        "maps.inverse.max_bits": counts.get("maps.inverse.max_bits", 0),
        "monoid.word_to_matrix.calls": c("monoid.word_to_matrix"),
        "monoid.word_to_matrix.s": i("monoid.word_to_matrix"),
        "arith.factorize.calls": c("arith.factorize"),
        "arith.factorize.self_s": s("arith.factorize"),
        "arith.factorize.max_bits": counts.get("arith.factorize.max_bits", 0),
        "arith.divisors.calls": c("arith.divisors"),
        "arith.divisors.self_s": s("arith.divisors"),
        "arith.is_prime.calls": c("arith.is_prime"),
        "arith.is_prime.s": i("arith.is_prime"),
        "analytics.row_stats_direct.calls": c("analytics.row_stats_direct"),
        "analytics.row_stats_direct.self_s": s("analytics.row_stats_direct"),
        "analytics.prime_representation.calls": c("analytics.prime_representation"),
        "analytics.prime_representation.self_s": s("analytics.prime_representation"),
        "classify.scan_violations.calls": c("classify.scan_violations"),
        "classify.scan_violations.self_s": s("classify.scan_violations"),
        "classify.check_condition.calls": c("classify.check_condition"),
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(by_layer.get(layer, 0.0) for _, _, by_layer in cover)
    out["trace.layer_cover_frac"] = (
        sum(out[f"layer.{layer}.self_s"] for layer in LAYERS) / traced_wall
    )
    return out


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "enumtree").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return res.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "enumtree" / "cli.py").is_file():
        print(f"error: no enumtree sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    sys.set_int_max_str_digits(0)  # the checker reads integers of any size
    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_file = OUT / f"{label}.stdout"

    started = time.time()
    ops = workloads.build(args.workload, args.seed, args.seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "argv_sha256": hashlib.sha256(json.dumps([op["argv"] for op in ops]).encode()).hexdigest(),
        "operations": len(ops),
    }
    try:
        if args.trace:
            metrics, table, info = traced(ops, out_file, OUT / f"{label}.spans.jsonl")
        else:
            metrics, table, info = end_to_end(ops, out_file)
    finally:
        out_file.unlink(missing_ok=True)
    record.update(info, elapsed_s=time.time() - started)

    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    verdicts = [row["verdict"] for row in table]
    failed = sum(v != "ok" for v in verdicts)
    result = {
        "correct": "wrong" not in verdicts,
        "attempted": len(table),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    record["result"] = result
    record["operations_table"] = table
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key in ("workload", "seed", "commit", "src_sha256", "python", "nproc",
                "loadavg_at_start", "argv_sha256"):
        print(f"# {key}: {record[key]}")
    for key, value in info.items():
        if not isinstance(value, list):
            print(f"# {key}: {value}")
    for name in wanted:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_frac = {failed / len(table):.4f} ({failed} of {len(table)} operations)")
    reasons: dict[str, int] = {}
    for row in table:
        if row["verdict"] != "ok":
            key = f"{row['verdict']} {row['argv'][0]}: {row['reason'][:120]}"
            reasons[key] = reasons.get(key, 0) + 1
    for key, n in sorted(reasons.items()):
        print(f"#   {n} x {key}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
