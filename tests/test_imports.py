"""Every imported name is used: a stdlib-ast check, since no linter is a
dependency. Package `__init__.py` files are skipped (they re-export), and so
are `from __future__` imports; instead, every name the package exports in
`__all__` must resolve."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "tendist", ROOT / "tests")
                 for p in d.glob("*.py") if p.name != "__init__.py")


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
