"""The README's python examples run as written.

Each ```python block of README.md is executed in a fresh namespace.  A line
that is one expression followed by a comment holding a Python literal, such
as `pkg.homology["N_untwisted"].betti  # (1, 1, 0)`, asserts that the
expression equals the literal.
"""
import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def _checked(line: str) -> str:
    """line, or an assertion when it is an expression commented by a literal."""
    code, sep, comment = line.partition("#")
    if not sep or line[:1].isspace():
        return line
    try:
        ast.parse(code, mode="eval")
        want = ast.literal_eval(comment.strip())
    except (SyntaxError, ValueError):
        return line
    return f"assert ({code.strip()}) == {want!r}, {code.strip()!r}"


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    source = "\n".join(_checked(line) for line in BLOCKS[index].splitlines())
    exec(compile(source, f"README.md python block {index}", "exec"), {})
