"""Unit test of ``tools/sloc.py``, the code-line counter of the package."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
_SPEC = importlib.util.spec_from_file_location("sloc", _PATH)
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)

SNIPPET = '''"""A module docstring
over two lines."""
# A comment.

import os


class Box:
    """A class docstring."""

    # An indented comment.
    size = (
        1,
        2,
    )


def first():
    """A function docstring
    over two lines.
    """
    text = """a string, not a docstring"""
    return [
        x
        for x in range(3)
    ]  # a trailing comment
'''


def test_code_lines_leaves_out_docstrings_comments_and_blanks():
    # import, class, four lines of size, def, text, four lines of return.
    assert sloc.code_lines(SNIPPET) == 12
