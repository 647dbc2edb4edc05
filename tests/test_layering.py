"""The package's layers, read from its source: the closed forms compute
with ``math`` alone, and only the searches and the estate remember a pass."""

import ast
from pathlib import Path

import pytest

import capreturn

SOURCE = Path(capreturn.__file__).parent


def parse(name: str) -> ast.Module:
    return ast.parse((SOURCE / f"{name}.py").read_text(encoding="utf-8"))


def imports(name: str) -> list[tuple[str, tuple[str, ...]]]:
    """``(module, names)`` of every import in module ``name``, a relative
    module with its leading dots."""
    found = []
    for node in ast.walk(parse(name)):
        if isinstance(node, ast.Import):
            found += [(alias.name, ()) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            found.append((module, tuple(alias.name for alias in node.names)))
    return found


@pytest.mark.parametrize("name", ["leverage", "valuation"])
def test_closed_forms_import_no_search(name):
    found = imports(name)
    modules = {module for module, _ in found}
    assert not {m for m in modules if m == "numpy" or m.startswith("numpy.")}
    assert not modules & {".optimize", ".memo"}
    quadrature = {n for module, names in found if module == ".quadrature" for n in names}
    assert quadrature <= {"DEFAULT_INTERVALS"}


def test_only_the_searches_and_the_estate_remember_a_pass():
    users = {
        path.stem
        for path in SOURCE.glob("*.py")
        for node in ast.walk(parse(path.stem))
        if isinstance(node, ast.Name) and node.id == "remember_latest"
    }
    assert users == {"optimize", "estate"}
