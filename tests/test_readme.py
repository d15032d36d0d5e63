"""README's python example runs, and each ``Fraction`` it shows is what
Python prints for that line."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_each_fraction_comment_is_the_repr_of_its_line():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    shown = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if comment.strip().startswith("Fraction("):
            assert repr(eval(code, namespace)) == comment.strip(), line
            shown += 1
        else:
            exec(code, namespace)
    assert shown
