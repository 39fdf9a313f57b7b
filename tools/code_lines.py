"""Count the code lines of a Python source tree: no docstrings, comments or blanks.

    python3 tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to this checkout's ``src``.  Prints ``<lines>  <file>`` for
every ``*.py`` file under it, then ``<lines>  total``.  A line counts when
the tokenizer finds code on it; comment and blank lines hold only COMMENT
and NL tokens, and the lines of module, class and function docstrings
(found with ``ast``) are dropped.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by every docstring in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(source))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src"
    total = 0
    for path in sorted(src.rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.relative_to(src)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
