#!/usr/bin/env python3
"""Print, per file of ``src/reprompt``, each statement line no test reaches.

Needs no ``coverage`` package: the tier-1 tests run in this process, under
pytest, with a line tracer installed by ``sys.settrace`` and
``threading.settrace`` (so worker threads are traced too). The tracer
records line events only in frames whose code lives in the package.

A statement counts as reached when any line of its head is: every line of
a simple statement, and the lines before the body of a compound one (its
decorators included). Statements that compile to no instruction are not
counted: a function's docstring, ``global`` and ``nonlocal``.

Lines that run only in a subprocess a test starts (the CLI kill test in
``tests/test_cli.py``, the demo scripts in ``tests/test_scripts.py``) are
not seen by the tracer, so they are reported too. Tracing makes the tests
several times slower; Hypothesis deadlines are switched off for the run.

    python scripts/untested_lines.py [PYTEST_ARGS...]
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reprompt"


def _silent(node: ast.stmt, parent: ast.AST) -> bool:
    """Whether ``node`` compiles to no instruction of its own: ``global``,
    ``nonlocal``, or the docstring of a function."""
    if isinstance(node, (ast.Global, ast.Nonlocal)):
        return True
    return (
        isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node is parent.body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _head(node: ast.stmt) -> range:
    """The lines whose execution shows that ``node`` was reached: all of a
    simple statement, and a compound one's lines before its body."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, node.lineno + 1))
    return range(first, node.end_lineno + 1)


def statements(source: str) -> dict[int, range]:
    """Each counted statement's first line, mapped to its head's lines."""
    return {
        node.lineno: _head(node)
        for parent in ast.walk(ast.parse(source))
        for node in ast.iter_child_nodes(parent)
        if isinstance(node, ast.stmt) and not _silent(node, parent)
    }


def unreached(source: str, executed: set[int]) -> list[int]:
    """The first lines of the statements in ``source`` that ``executed``
    (the line numbers the tracer saw) never reached, in order."""
    return sorted(
        line
        for line, head in statements(source).items()
        if not any(n in executed for n in head)
    )


class _NoDeadlines:
    """A pytest plugin that turns Hypothesis deadlines off before the tests
    are collected, since tracing slows every example down."""

    def pytest_configure(self, config):
        try:
            from hypothesis import settings
        except ImportError:
            return
        settings.register_profile("untested-lines", deadline=None)
        settings.load_profile("untested-lines")


def trace_tests(package: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest here under the line tracer: (exit status, lines seen per file)."""
    import pytest

    prefix = f"{package}{os.sep}"
    executed: dict[str, set[int]] = {}

    def on_line(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        executed.setdefault(filename, set())
        return on_line

    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", *pytest_args], plugins=[_NoDeadlines()]
        )
    finally:
        threading.settrace(None)
        sys.settrace(None)
    return int(status), executed


def main(argv: list[str]) -> int:
    os.chdir(ROOT)  # so pytest reads pyproject.toml's testpaths
    sys.path.insert(0, str(ROOT / "src"))
    status, executed = trace_tests(PACKAGE, argv)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = unreached(path.read_text(encoding="utf-8"), executed.get(str(path), set()))
        total += len(lines)
        if lines:
            print(f"{path.relative_to(ROOT)} ({len(lines)}): {', '.join(map(str, lines))}")
    print(f"{total} statement lines not reached; pytest exit status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
