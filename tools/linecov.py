"""Line-coverage gate: every executable line of src runs under tier-1.

Usage (from the repository root), on the whole of tier-1:

    PYTHONPATH=src:tools python -m pytest -q -p linecov

A stdlib ``sys.settrace`` pytest plugin.  It records each line of
``src/fibmod/*.py`` that runs in the test process, and at the end of the
session prints every executable line that never ran and fails the run,
except the lines in ``EXPECTED``, each named by its file and its text
and kept with its reason.  It also fails when an ``EXPECTED`` entry
names no line or a line that did run, so the list cannot go stale.

An executable line is the first line of a statement that compiles to
code.  Docstrings fire no line event, so they are left out.

Pool workers are forked from the test process and are not traced: a
line that only a worker runs reads as not run.  Every function the scan
pool runs also runs at ``jobs = 1`` in tier-1.
"""

from __future__ import annotations

import ast
import glob
import os
import sys
import types

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "fibmod")

# (file, stripped text of the line): why no test runs it.
EXPECTED = {
    ("cli.py", "sys.exit(main())"): "runs only when cli.py is run as a script",
}

_ran: dict[str, set[int]] = {os.path.realpath(f): set() for f in glob.glob(os.path.join(SRC, "*.py"))}
_by_code_file: dict[str, set[int] | None] = {}
_missed: list[str] = []


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _by_code_file:
        _by_code_file[name] = _ran.get(os.path.realpath(name))
    lines = _by_code_file[name]
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


def executable_lines(path: str) -> set[int]:
    """First lines of the statements in ``path`` that compile to code, docstrings left out."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    docs = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docs.add(first.lineno)
    with_code, codes = set(), [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return ({node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)} - docs) & with_code


def pytest_configure(config):
    sys.settrace(_trace)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    expected = dict(EXPECTED)
    for path, ran in sorted(_ran.items()):
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        base = os.path.basename(path)
        for line in sorted(executable_lines(path) - ran):
            if expected.pop((base, text[line - 1].strip()), None) is None:
                _missed.append(f"{base}:{line}: never ran: {text[line - 1].strip()}")
    _missed.extend(f"{f}: EXPECTED entry names no unrun line: {t}" for f, t in expected)
    if _missed:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("linecov")
    for line in _missed:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"{len(_missed)} problem(s); {len(EXPECTED)} expected unrun line(s)")
