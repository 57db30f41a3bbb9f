"""Code lines of each ``src/evrotor`` module, to show how a change moves the package's size.

    python tools/loc.py

Prints ``<module> <lines>`` for each module, in name order, then
``total <n>``. A code line holds at least one token that is not a comment,
a docstring, or a line break or indent token; blank lines, comment lines and
docstrings do not count. A docstring is a string that stands alone as the
first statement of a module, class or function.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "evrotor"

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` hold a token other than layout, comments and docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    total = 0
    for module in sorted(PACKAGE.glob("*.py")):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{module.stem} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
