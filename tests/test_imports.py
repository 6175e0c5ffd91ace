"""Every top-level import of src/ and tests/ is used in its module, and no
public function takes an option that no caller sets.

A plain `ast` walk, so the check needs no linter: a module fails when it
binds a name by a top-level import and never reads that name again.
Re-exports in `__init__.py` and `from __future__` imports are exempt.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import ifslab

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


# the membership tolerance reaches the kernels through these three only,
# the ones `analyze-point --tol` calls
TOL_TAKERS = {"ifslab.geometry.contains", "ifslab.geometry.contains_many",
              "ifslab.addresses.classify_point"}


def public_functions():
    """(qualified name, function) of every public function and method defined in ifslab."""
    for info in pkgutil.iter_modules(ifslab.__path__):
        mod = importlib.import_module(f"ifslab.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for meth, f in vars(obj).items():
                    if not meth.startswith("_") and inspect.isfunction(f):
                        yield f"{mod.__name__}.{name}.{meth}", f


def takers(param):
    return {name for name, f in public_functions() if param in inspect.signature(f).parameters}


def test_only_the_membership_entry_points_take_tol():
    assert takers("tol") == TOL_TAKERS


def test_no_function_takes_a_node_budget():
    assert takers("node_budget") == set()
