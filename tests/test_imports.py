"""Every module reads each name it imports, and the library reads each private
name it defines; checked with ``ast`` alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "twbench").glob("*.py"))
MODULES = sorted([*LIBRARY, *(ROOT / "tests").glob("*.py")])


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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level functions, classes and constants, and the
    private methods, that no module of ``sources`` reads outside their own
    definition.  A read is a loaded name, a loaded attribute, or a name in a
    ``from`` import; a dunder is not private."""
    defined = []  # (module, name, first line, last line)
    reads: dict[str, list] = {}  # name -> (module, line) of each read
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    targets.extend(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
            if isinstance(node, ast.ClassDef):
                defined.extend((module, item.name, item.lineno, item.end_lineno)
                               for item in node.body if isinstance(item, ast.FunctionDef)
                               and _private(item.name))
            defined.extend((module, name, node.lineno, node.end_lineno)
                           for name in targets if _private(name))
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            for name in names:
                reads.setdefault(name, []).append((module, node.lineno))
    return [f"{module}: {name} (line {first})" for module, name, first, last in defined
            if not any(where != module or not first <= line <= last
                       for where, line in reads.get(name, ()))]


def test_the_private_name_rule():
    sources = {"a": "_K = 1\n_L = 2\ndef _f():\n    return _f()\n"
                    "class C:\n    def _m(self):\n        return _K\n"
                    "    def _n(self):\n        pass\n    def __eq__(self, o):\n        pass\n",
               "b": "from a import _L\nC()._n()\n"}
    assert unread_private_names(sources) == ["a: _f (line 3)", "a: _m (line 6)"]


def test_every_private_name_is_read():
    assert unread_private_names({path.name: path.read_text(encoding="utf-8")
                                 for path in LIBRARY}) == []
