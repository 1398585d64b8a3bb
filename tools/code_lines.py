"""Code lines of each module of src/picard20, and their total.

Run from anywhere:

    python3 tools/code_lines.py

A code line holds at least one token that is not a comment, a line break,
an indent or a dedent, and is not part of a docstring: the string that opens
a module, class or function body.  A string token, docstring or not, holds
every line it spans.  Prints one line per module, then the total.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "picard20"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

# the nodes whose body may open with a docstring
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or any(start <= tok.start < end for start, end in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def report(directory: Path) -> dict:
    """Code lines of each .py file of directory, by file name."""
    return {path.name: code_lines(path.read_text()) for path in sorted(directory.glob("*.py"))}


def main() -> None:
    counts = report(SRC)
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")


if __name__ == "__main__":
    main()
