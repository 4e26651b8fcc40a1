#!/usr/bin/env python3
"""Count the code lines of ``src/**/*.py``: lines that are not blank, not
comment-only and not part of a docstring.

A line counts when a token other than a comment or a line break starts on
it or spans it (``tokenize``), and no module, class or function docstring
covers it (``ast``).  Prints one row per file, largest first, then the
total.

Run:  python tools/loc.py [CHECKOUT]   (default: this repository)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """Code lines of one Python file."""
    with path.open("rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    lines: set[int] = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    src = root / "src"
    counts = {
        path.relative_to(src).as_posix(): code_lines(path)
        for path in sorted(src.rglob("*.py"))
    }
    if not counts:
        print(f"no Python files under {src}", file=sys.stderr)
        return 1
    width = max(map(len, counts))
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<{width}}  {count:6d}")
    print(f"{'total':<{width}}  {sum(counts.values()):6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
