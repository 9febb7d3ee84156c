"""Mutation probe: do the tests notice a one-token change to the package?

Each mutant changes one token of one module of src/enumtree (all but
__init__): it swaps an operator for its partner (+ and -, * and //, << and >>,
< and <=, > and >=, == and !=, and the augmented +=, *=, <<= likewise) or adds
1 to an integer literal.  The sites are drawn with a fixed seed, or, with
--since REV, every site on a line that `git diff -U0 REV -- src/` marks as
added or changed is run.  Each mutant is written into a fresh temporary copy of
the repository, and the tier-1 suite runs there with -x, one mutant at a time,
under a timeout.  The unmutated suite runs first and must pass; unless --timeout
is given, each mutant may take that green run's time plus twice TEST_DEADLINE_S
of the root conftest.py (a test past the deadline fails, and a stall inside C ends
the run at twice it).  Every site is printed with its outcome:

    killed    a test failed
    deadline  a test ran past TEST_DEADLINE_S (a loop that no longer ends), and
              failed; the test it names is printed
    survived  every test passed: a gap in the tests, or an equivalent mutant
    timeout   the suite ran past --timeout

It needs the standard library and pytest only:

    python tests/mutants.py --count 60 --seed 20261019
    python tests/mutants.py --since HEAD~1

It is not a test module (no test_ prefix), so pytest does not collect it.
"""

import argparse
import io
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # ahead of tests/, whose conftest.py holds no deadline
from conftest import TEST_DEADLINE_S  # noqa: E402

SKIPPED_MODULES = {"__init__.py"}
PARTNER = {"+": "-", "*": "//", "<<": ">>", "<": "<=", ">": ">=", "==": "!=",
           "+=": "-=", "*=": "//=", "<<=": ">>="}
PARTNER.update({new: old for old, new in list(PARTNER.items())})


def sites(path: Path):
    """(line, col, old, new) for every one-token mutation of path that still compiles."""
    source = path.read_text()
    lines = source.splitlines(keepends=True)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP and tok.string in PARTNER:
            new = PARTNER[tok.string]
        elif tok.type == tokenize.NUMBER and tok.string.isdigit():
            new = str(int(tok.string) + 1)
        else:
            continue
        (row, col), end = tok.start, tok.end[1]
        line = lines[row - 1]
        mutated = lines[: row - 1] + [line[:col] + new + line[end:]] + lines[row:]
        try:  # an unpacking * has no // partner
            compile("".join(mutated), str(path), "exec")
        except SyntaxError:
            continue
        yield row, col, tok.string, new


def apply(path: Path, row: int, col: int, old: str, new: str) -> None:
    lines = path.read_text().splitlines(keepends=True)
    line = lines[row - 1]
    assert line[col : col + len(old)] == old, (path, row, col, old)
    lines[row - 1] = line[:col] + new + line[col + len(old) :]
    path.write_text("".join(lines))


def changed_lines(rev: str) -> dict[Path, set[int]]:
    """Lines of each file under src/ that `git diff -U0 rev` marks as added or changed."""
    diff = subprocess.run(["git", "diff", "-U0", rev, "--", "src/"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout
    lines: dict[Path, set[int]] = {}
    for line in diff.splitlines():
        if line.startswith("+++ "):
            path = ROOT / line[len("+++ b/"):]
        elif line.startswith("@@ "):  # @@ -old[,n] +start[,count] @@, count 1 if left out
            start, _, count = line.split()[2][1:].partition(",")
            lines.setdefault(path, set()).update(range(int(start), int(start) + int(count or 1)))
    return lines


def copy_repo(tmp: str) -> Path:
    copy = Path(tmp) / "repo"
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
    return copy


def run_suite(copy: Path, timeout: float | None) -> tuple[str, str]:
    """The suite's outcome in copy, and the test that ran past the deadline, if one did."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    log = copy.parent / "pytest.log"
    with log.open("w") as out:
        # a session of its own, so a timeout stops the CLI children the tests start too
        proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout", ""
    hung = re.search(r"DeadlineExceeded: (\S+) ran past", log.read_text())
    if hung:
        return "deadline", hung[1]
    return ("survived" if code == 0 else "killed"), ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=60, help="mutants to run")
    parser.add_argument("--seed", type=int, default=20261019)
    parser.add_argument("--timeout", type=float,
                        help="seconds per mutant (default: from the green run, see above)")
    parser.add_argument("--since", metavar="REV",
                        help="run every site on the lines changed since REV, not a sample")
    args = parser.parse_args(argv)

    modules = sorted(p for p in (ROOT / "src" / "enumtree").glob("*.py")
                     if p.name not in SKIPPED_MODULES)
    every = [(p, *site) for p in modules for site in sites(p)]
    if args.since:
        changed = changed_lines(args.since)
        chosen = [site for site in every if site[1] in changed.get(site[0], ())]
    else:
        chosen = random.Random(args.seed).sample(every, min(args.count, len(every)))
    print(f"{len(every)} sites in {len(modules)} modules; running {len(chosen)}", flush=True)
    if not chosen:
        return 0
    with tempfile.TemporaryDirectory(prefix="green-") as tmp:
        copy = copy_repo(tmp)
        start = time.monotonic()
        outcome, _ = run_suite(copy, None)
    green = time.monotonic() - start
    if outcome != "survived":
        print(f"the unmutated suite did not pass ({outcome}); no mutant run", flush=True)
        return 1
    timeout = args.timeout or green + 2 * TEST_DEADLINE_S
    print(f"green run {green:.1f}s; {timeout:.0f}s per mutant", flush=True)
    tally: dict[str, int] = {}
    for i, (path, row, col, old, new) in enumerate(chosen, 1):
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            copy = copy_repo(tmp)
            apply(copy / path.relative_to(ROOT), row, col, old, new)
            start = time.monotonic()
            outcome, hung = run_suite(copy, timeout)
        tally[outcome] = tally.get(outcome, 0) + 1
        site = f"{path.relative_to(ROOT)}:{row}:{col + 1}"
        text = path.read_text().splitlines()[row - 1].strip()
        print(f"{i:3d} {outcome:8s} {time.monotonic() - start:6.1f}s {site} {old!r} -> {new!r}"
              f"  | {text}", flush=True)
        if hung:
            print(f"    {hung} ran past {TEST_DEADLINE_S} s", flush=True)
    print("tally: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
