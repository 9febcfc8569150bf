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
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
SEARCHED = MODULES + PERFBENCH


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


# the definitions that nothing but the tests reaches, each kept on purpose
TEST_ONLY = {
    "redistribute": "the library's move of a placed tensor to a new distribution",
    "piece_bounds": "perfbench's bench_trace counts its calls by name",
    "processors_of": "perfbench's bench_trace counts its calls by name",
}


def test_no_definition_is_reached_only_from_tests():
    # the package and perfbench without the tests: a name only tests call
    # fails here unless TEST_ONLY says why it stays. Being name-based, the
    # scan cannot see a property or method whose name something else also uses.
    package = sorted((ROOT / "src" / "tendist").glob("*.py"))
    found = {name for _, name in unreferenced({p: p.read_text() for p in package + PERFBENCH})}
    assert found == set(TEST_ONLY)


def unread_fields(sources: dict) -> list:
    """(path, "Class.field") of each field of a `src/tendist` class in
    `sources` (path -> text) that nothing in `sources` reads. A field is an
    annotated name of the class body (a dataclass or NamedTuple field) or an
    attribute its `__init__` sets on self. Name-based like `unreferenced`: a
    read of any object's attribute of that name counts, and so does a name
    of that name that an assignment unpacks, which is how a NamedTuple's
    fields are read without attributes."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = set()
    for n in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
        elif isinstance(n, ast.Assign):
            read.update(e.id for t in n.targets if isinstance(t, ast.Tuple)
                        for e in t.elts if isinstance(e, ast.Name))
    out = []
    for path, tree in trees.items():
        if Path(path).parent.name != "tendist":
            continue
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            fields = [n.target.id for n in cls.body
                      if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
            for init in (n for n in cls.body
                         if isinstance(n, ast.FunctionDef) and n.name == "__init__"):
                fields += [n.attr for n in ast.walk(init)
                           if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                           and isinstance(n.value, ast.Name) and n.value.id == "self"]
            out += [(path, f"{cls.name}.{f}") for f in dict.fromkeys(fields) if f not in read]
    return out


def test_field_scanner_flags_only_unread_fields():
    module = ("from dataclasses import dataclass\n"
              "from typing import NamedTuple\n"
              "@dataclass\n"
              "class Row:\n"
              "    kept: int\n"
              "    spare: int\n"
              "class Pair(NamedTuple):\n"
              "    first: int\n"
              "    second: int\n"
              "class Box:\n"
              "    def __init__(self):\n"
              "        self.used, self.idle = 1, 2\n"
              "        self.used += self.used\n")
    elsewhere = "print(Row(1, 2).kept, Box().used)\nfirst, _ = Pair(1, 2)\n"
    sources = {"tendist/m.py": module, "tests/t.py": elsewhere}
    assert unread_fields(sources) == [("tendist/m.py", "Row.spare"),
                                      ("tendist/m.py", "Pair.second"),
                                      ("tendist/m.py", "Box.idle")]


# the fields that nothing but the tests reads, each kept on purpose
FIELDS_TESTS_READ = {
    "RunResult.store": "the regions a run leaves behind, which tests inspect",
}


def test_every_field_is_read():
    # the package and perfbench without the tests: a field that nothing
    # reads fails here unless FIELDS_TESTS_READ says why it stays
    package = sorted((ROOT / "src" / "tendist").glob("*.py"))
    found = unread_fields({p: p.read_text() for p in package + PERFBENCH})
    assert {field for _, field in found} == set(FIELDS_TESTS_READ)
