"""Every name a module of src/ratioscope imports is used in it: a
stdlib stand-in for pyflakes' F401.  An import statement carrying
``# noqa: F401`` is exempt, and ``__all__`` counts as a use."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ratioscope"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            # "import a.b" binds a
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import inspect\nimport os\nos.sep\n") == ["line 1: inspect"]
    assert unused_imports("from a import b, c  # noqa: F401\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from .x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
