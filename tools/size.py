"""Print the size of each module of a package: its lines as ``wc -l`` counts
them, and its code lines, the lines that hold a token other than a comment
outside docstrings. Then print the totals.

    python tools/size.py [PACKAGE_DIR]      # default: src/sps

Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(wc lines, code lines) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src" / "sps")
    rows = [(path.name, *count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'wc':>5}  {'code':>5}")
    for name, wc, code in rows:
        print(f"{name:<{width}}  {wc:>5}  {code:>5}")


if __name__ == "__main__":
    main(sys.argv[1:])
