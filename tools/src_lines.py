"""Line counts of the package source: total lines and code lines.

    python3 tools/src_lines.py [--by-file] [PATH ...]

Run from the repository root; PATH defaults to ``src/bvihead``, and a
directory counts every ``.py`` file under it. ``--by-file`` first prints
each file's total and code lines. A code line holds a token
other than a comment, outside docstrings: blank lines, comment-only lines
and the lines of a module, class or function docstring are not code. A
line that a multi-line expression or string spans counts as code.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers that docstrings cover."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOC_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one Python file."""
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(source)
    code = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def main(argv: list[str]) -> int:
    by_file = "--by-file" in argv
    files = []
    for arg in [a for a in argv if a != "--by-file"] or ["src/bvihead"]:
        p = Path(arg)
        files += sorted(p.rglob("*.py")) if p.is_dir() else [p]
    total = code = 0
    for f in files:
        t, c = count(f)
        total += t
        code += c
        if by_file:
            print(f"{t:6d} {c:6d}  {f}")
    print(f"{total} total lines, {code} code lines in {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
