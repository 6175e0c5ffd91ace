"""Every top-level import of src/ and tests/ is used in its module.

A plain `ast` walk, so the check needs no linter: a module fails when it
binds a name by a top-level import and never reads that name again.
Re-exports in `__init__.py` and `from __future__` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    src = "from __future__ import annotations\nimport os, math as m\nfrom a.b import c\nprint(m.pi)\n"
    assert unused_imports(src) == [(2, "os"), (3, "c")]
