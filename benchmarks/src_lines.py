#!/usr/bin/env python3
"""Count the physical and code lines of each module of ``src/cubictheta``.

    python3 benchmarks/src_lines.py

Takes no options.  A code line is a line that holds part of a token that is
neither a comment nor a docstring; blank lines, comment lines and docstring
lines are not code.  A docstring is a string literal that is the first
statement of a module, class or function.  Prints one JSON object: per module
(by file name) and in total, its ``physical`` and ``code`` lines.
"""

from __future__ import annotations

import ast
import io
import json
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cubictheta"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree) -> set:
    """The (line, column) of the first token of every docstring."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(text: str) -> dict:
    """The physical and code lines of one module's source."""
    docstrings = _docstring_starts(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or tok.type == tokenize.STRING and tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return {"physical": len(text.splitlines()), "code": len(code)}


def main() -> None:
    modules = {path.name: count(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = {key: sum(m[key] for m in modules.values()) for key in ("physical", "code")}
    print(json.dumps({"modules": modules, "total": total}, indent=2))


if __name__ == "__main__":
    main()
