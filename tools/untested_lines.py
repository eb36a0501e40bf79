"""Print every statement of src/effdiff that no test in tests/ runs.

    python3 tools/untested_lines.py

Runs `pytest tests` in this process under a line tracer (sys.settrace,
and threading.settrace for the threads that the tests start) that records
the lines of src/effdiff/*.py that produce a line event, then prints one
`file:line: text` line for each statement that produced none, and a last
`# N of M statements not run` line.  pytest's own report goes to stderr.
A statement counts as run when any line that it spans was reached; a
docstring is not a statement.  It needs no coverage package.

Hypothesis's explain phase sets a tracer of its own and clears it when done,
which ends this one without a word, so the phase is switched off.  A test that
hits the recursion limit inside the tracer ends it too; the trace is put
back after every test phase that lost it, and those phases are named on
stderr, since the lines that they ran after the loss count as not run.
The exit code is pytest's.  It takes about 1.5 times as long as the tests.
"""

from __future__ import annotations

import ast
import contextlib
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "effdiff"


def statements(path):
    """(first line, last line) of each statement of a module, docstrings
    aside, in the order of their first lines."""
    tree = ast.parse(path.read_text(), str(path))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and isinstance(node.body[0], ast.Expr)
                  and isinstance(node.body[0].value, ast.Constant)
                  and isinstance(node.body[0].value.value, str)}
    return sorted((node.lineno, node.end_lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and id(node) not in docstrings)


def traced_run(pytest_args):
    """(pytest's exit code, {file name: lines reached}, the test phases
    that lost the trace) of one in-process pytest run."""
    import hypothesis
    import pytest

    # before the tests are collected, so that their settings inherit it
    hypothesis.settings.register_profile("untested-lines", phases=[
        phase for phase in hypothesis.Phase if phase != hypothesis.Phase.explain])
    hypothesis.settings.load_profile("untested-lines")

    reached = {str(path): set() for path in PACKAGE.glob("*.py")}

    def lines(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename in reached else None

    lost = []

    class Retrace:
        """Puts the trace back after a test phase that ended it."""

        @staticmethod
        def pytest_runtest_logreport(report):
            if sys.gettrace() is not calls:
                lost.append(f"{report.nodeid} ({report.when})")
                sys.settrace(calls)

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(pytest_args, plugins=[Retrace()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, {Path(name).name: hit for name, hit in reached.items()}, lost


def main():
    code, reached, lost = traced_run(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    missed = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for first, last in statements(path):
            total += 1
            if reached[path.name].isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{path.name}:{first}: {source[first - 1].strip()}")
    print(f"# {missed} of {total} statements not run")
    for phase in lost:
        print(f"trace lost and put back after {phase}", file=sys.stderr)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
