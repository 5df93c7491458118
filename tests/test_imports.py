"""Every module reads each name it imports; checked with ``ast`` alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "twbench").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unread_imports(source: str) -> list[str]:
    """The names an ``import`` binds that the module never reads.  A name
    listed in ``__all__`` counts as read (a re-export), and so does a
    ``from __future__`` import."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_rule():
    assert unread_imports("from __future__ import annotations\nimport os\nimport a.b as c\n"
                          "from x import y, z\n__all__ = ['z']\nos.sep\n") == [
        "c (line 3)", "y (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
