"""Print the total and code lines of each module of the ``ncpqec`` package.

A code line carries a token other than a comment; docstrings (of the
module, its classes and its functions, found with ``ast``) are not code.
Blank lines and comment-only lines count only in the total.

Run from the repository root::

    python3 tools/src_lines.py [package directory, default src/ncpqec]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``(total, code)`` lines of the Python source at ``path``."""
    text = path.read_text(encoding="utf-8")
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    package = Path(argv[1] if len(argv) > 1 else "src/ncpqec")
    rows = [(path.name, *count(path)) for path in sorted(package.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'total':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6,}  {code:>6,}")
    print(f"{'all':<{width}}  {sum(r[1] for r in rows):>6,}  {sum(r[2] for r in rows):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
