"""The README's Python examples run and give the values their comments
print."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
CLAIM = re.compile(r"(-?\d+\.(\d+))\s*$")  # a comment that ends in a decimal number


def claimed_values(source: str) -> dict[int, tuple[float, int]]:
    """{line: (number, decimals)} for every comment ending in a number."""
    claims = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = CLAIM.search(token.string) if token.type == tokenize.COMMENT else None
        if match:
            claims[token.start[0]] = (float(match.group(1)), len(match.group(2)))
    return claims


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS)
def test_example_runs_and_keeps_its_printed_digits(source):
    claims = claimed_values(source)
    checked = set()
    namespace: dict = {}
    for node in ast.parse(source).body:
        line = node.end_lineno
        if isinstance(node, ast.Expr) and line in claims:
            value = eval(compile(ast.Expression(node.value), README.name, "eval"), namespace)
            number, decimals = claims[line]
            assert abs(value - number) <= 0.5 * 10.0**-decimals, (
                f"README line {line} of its block prints {number}, the code gives {value!r}"
            )
            checked.add(line)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), README.name, "exec"), namespace)
    assert checked == set(claims), "a commented value is not on an expression line"
