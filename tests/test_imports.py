"""Every imported name is used and every defined name is referenced:
stdlib-ast checks, since no linter is a dependency. Package `__init__.py`
files are skipped (they re-export), and so are `from __future__` imports;
instead, every name the package exports in `__all__` must resolve."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "tendist", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")
SEARCHED = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_only_unused_names():
    source = ("from __future__ import annotations\nimport os, os.path as osp\n"
              "from x import a, b as c\nprint(os.sep, c)\n")
    assert unused_imports(source) == [(2, "osp"), (3, "a")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_public_names_resolve():
    # the scan above skips __init__.py, so a stale __all__ entry shows only here
    import tendist
    assert [n for n in tendist.__all__ if not hasattr(tendist, n)] == []
    assert len(set(tendist.__all__)) == len(tendist.__all__)


def unreferenced(sources: dict) -> list:
    """(path, name) of each top-level function and class of a `src/tendist`
    module in `sources` (path -> text), and each method of its classes, whose
    name no Name or Attribute mentions outside the definition itself; dunder
    methods are exempt."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    refs: dict = {}
    for path, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                name = n.id if isinstance(n, ast.Name) else n.attr
                refs.setdefault(name, []).append((path, n.lineno))
    out = []
    for path, tree in trees.items():
        if Path(path).parent.name != "tendist":
            continue
        defs = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body if isinstance(m, ast.FunctionDef)]
        out += [(path, d.name) for d in defs
                if not (d.name.startswith("__") and d.name.endswith("__"))
                and all(p == path and d.lineno <= line <= d.end_lineno
                        for p, line in refs.get(d.name, []))]
    return out


def test_dead_name_scanner_flags_only_unreferenced_names():
    module = ("def used(): return helper()\n"
              "def helper(): return 1\n"
              "def lonely(): return lonely()\n"
              "class Box:\n"
              "    def __len__(self): return 0\n"
              "    def size(self): return 1\n"
              "    def spare(self): return self.spare\n")
    elsewhere = "used()\nBox().size()\n"
    sources = {"tendist/m.py": module, "tests/t.py": elsewhere}
    assert unreferenced(sources) == [("tendist/m.py", "lonely"), ("tendist/m.py", "spare")]


def test_no_unreferenced_definitions():
    # searches the package, its tests and perfbench, so a helper whose last
    # caller is gone fails here until it is deleted
    assert unreferenced({p: p.read_text() for p in SEARCHED}) == []
