"""README's CLI block runs, its library example states true values, and neither README
nor a module docstring carries a measurement."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

from enumtree.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
# A wall time or a memory figure: "85 MB", "2.2-2.3 s", "107 ms"; not s(2k) or 2^53 - 1.
_FIGURE = re.compile(r"\b\d[\d.,]*(?:-\d[\d.,]*)?\s?(?:ms|s|MB|GB)\b(?!\()")


def _block(heading: str, lang: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_every_cli_line_of_the_readme_exits_0():
    lines = [line.split("#", 1)[0] for line in _block("CLI", "sh").splitlines()]
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("enumtree ")]
    assert len(argvs) == 10
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0, argv
        assert out.getvalue(), argv


def test_the_readme_library_example_states_true_values():
    code = _block("Library example", "python")
    names: dict = {}
    exec(code, names)
    trace, kernel = names["trace"], names["kernel"]
    pairs = [p.components() for p in trace.pairs]
    fiber = kernel.fiber(3)
    relatives = names["relatives"](names["word_to_matrix"]("SSTSST"))
    # (computed, expected, how the README states it)
    stated = [
        (trace.word, "TTTTTTTS", "# 'TTTTTTTS'"),
        (trace.index, 383, "# 383"),
        (pairs, [(113, 15), (2, 15), (2, 1), (1, 1), (1, 0)],
         "# [(113, 15), (2, 15), (2, 1), (1, 1), (1, 0)]"),
        (kernel.s_prefix(15), [0, 1, 1, 2, 3, 3, 2, 3, 7, 8, 5, 5, 8, 7, 3],
         "# [0, 1, 1, 2, 3, 3, 2, 3, 7, 8, 5, 5, 8, 7, 3]"),
        (fiber, {5, 6, 8, 15}, "# {5, 6, 8, 15}"),
        (kernel.is_f_prime_via_fiber(4), True, "# True: 17 is prime"),
        (kernel.is_f_prime_via_fiber(3, fiber), False, "# False"),
        ([p.components() for p in relatives.values()],
         [(25, 68), (37, 100), (31, 84), (61, 164)],
         "# pairs (25, 68), (37, 100), (31, 84), (61, 164)"),
    ]
    for got, expected, text in stated:
        assert got == expected, text
        assert text in code, text


def test_no_wall_time_or_memory_figure_in_readme_or_a_module_docstring():
    # The docs say what the program does; CHANGES.md keeps each measurement with the
    # change that made it, so a figure is not written twice and does not go stale.
    docs = {"README.md": README}
    for path in sorted((ROOT / "src" / "enumtree").glob("*.py")):
        docs[path.name] = ast.get_docstring(ast.parse(path.read_text())) or ""
    figures = {name: _FIGURE.findall(text) for name, text in docs.items()}
    assert {name: found for name, found in figures.items() if found} == {}
