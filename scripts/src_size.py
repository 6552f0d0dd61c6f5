#!/usr/bin/env python3
"""Print the size of ``src/reprompt``: its line count and its settable values.

Lines are counted as ``wc -l src/reprompt/*.py`` counts them: newline
characters, summed over the package's top-level ``.py`` files.

A settable value is a default a caller could override without editing
the code. The count is taken from each file's syntax tree and is the sum
of:

- every default of a ``def`` or ``async def`` parameter, positional or
  keyword-only (a keyword-only parameter without a default is not one);
- every annotated field with a value in the body of a record class:
  one decorated with ``@dataclass`` (called or not), or one that
  subclasses ``NamedTuple``; ``ClassVar`` fields excepted.

Lambdas, module constants and plain class attributes are not counted.

    python scripts/src_size.py [PACKAGE_DIR]
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reprompt"


def _name(node: ast.expr) -> str | None:
    """``f`` for ``f``, ``m.f``, ``f(...)`` and ``f[...]``."""
    if isinstance(node, (ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _is_record(node: ast.ClassDef) -> bool:
    return any(_name(d) == "dataclass" for d in node.decorator_list) or any(
        _name(b) == "NamedTuple" for b in node.bases
    )


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.defaults)
            count += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_record(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign)
                and stmt.value is not None
                and _name(stmt.annotation) != "ClassVar"
                for stmt in node.body
            )
    return count


def measure(package: Path) -> tuple[int, int]:
    """(lines, settable values) over the ``.py`` files directly in ``package``."""
    lines = values = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_bytes()
        lines += source.count(b"\n")
        values += settable_values(ast.parse(source, filename=str(path)))
    return lines, values


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    lines, values = measure(package)
    print(f"lines: {lines}")
    print(f"settable values: {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
