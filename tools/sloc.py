"""Code lines of each module of ``src/baccarat/``: the lines that are not
blank, not comments and not docstrings.

Run from anywhere as ``python tools/sloc.py``; it prints one line per
module and the total.  Standard library only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "baccarat"
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """Lines of ``text`` that are not blank, not a comment and not in a
    module, class or function docstring."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docs.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for n, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and n not in docs
    )


if __name__ == "__main__":
    counts = {p.name: code_lines(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
