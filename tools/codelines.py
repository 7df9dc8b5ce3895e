"""Line counts of the package: ``wc -l`` and code lines of every module.

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring.  The ROADMAP's line budget is the
code-line total of ``src/dualrrm``.

    python3 tools/codelines.py
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dualrrm"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The non-blank lines of ``text`` outside comments and docstrings."""
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            skip.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
            skip.add(tok.start[0])
    return sum(bool(line.strip()) and i not in skip
               for i, line in enumerate(text.splitlines(), 1))


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        rows.append((text.count("\n"), code_lines(text), path.name))
    rows.append((sum(r[0] for r in rows), sum(r[1] for r in rows), "total"))
    print(f"{'lines':>7} {'code':>6}  module")
    for lines, code, name in rows:
        print(f"{lines:>7} {code:>6}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
