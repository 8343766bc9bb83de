"""Print the number of code lines in src/typesemigroup.

A code line is a line that carries a token of code: blank lines, comment
lines and the lines of docstrings (the string that opens a module, class
or function) do not count.  Run from the repository root:

    python3 .github/code-lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


if __name__ == "__main__":
    src = Path(__file__).resolve().parent.parent / "src" / "typesemigroup"
    total = sum(code_lines(path.read_text(encoding="utf-8")) for path in sorted(src.rglob("*.py")))
    print(f"src/typesemigroup code lines {total}")
