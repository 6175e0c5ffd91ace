"""Every top-level import of src/ and tests/ is used in its module, no
src/ module defers an ifslab import into a function, no function of the
package, private ones included, takes an option that no caller sets, and
only `geometry.contains` takes a tolerance, digit words are projected only by
`core`, only `core` and `addresses` read the one scalar kernel, only
`core` reads the integer-state node format or defines a point reader,
only `addresses` defines a forced-chain record and only it and `triangle`
read the chain walker, and only the one batched facet loop reads the float
facets.

A plain `ast` walk, so the check needs no linter: a module fails when it
binds a name by a top-level import and never reads that name again.
Re-exports in `__init__.py` and `from __future__` imports are exempt.  A
deferred import is how an import cycle hides, so the modules of the
package import each other at the top or not at all.
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


SRC_MODULES = sorted((ROOT / "src").rglob("*.py"))


def deferred_package_imports(source):
    """(line, module) of every import of the package made inside a function."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "ifslab"):
                found.append((node.lineno, "." * node.level + (node.module or "")))
            elif isinstance(node, ast.Import):
                found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "ifslab"]
    return sorted(set(found))


@pytest.mark.parametrize("path", SRC_MODULES, ids=[str(p.relative_to(ROOT)) for p in SRC_MODULES])
def test_no_import_of_the_package_inside_a_function(path):
    assert deferred_package_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_deferred_import():
    src = ("from .core import x\nimport ifslab\n\n"
           "def f():\n    import math\n    from .core import y\n\n"
           "    def g():\n        import ifslab.geometry\n        from ifslab import z\n"
           "        from . import w\n")
    assert deferred_package_imports(src) == [(6, ".core"), (9, "ifslab.geometry"),
                                             (10, "ifslab"), (11, ".")]


# every float walk and batched test widens Omega by geometry.DEFAULT_TOL;
# only `contains` takes a tolerance, whose negative values are the interior
# margin of addresses._solid and the geometry tests
TOL_TAKERS = {"ifslab.geometry.contains"}


def package_functions():
    """(qualified name, function) of every function and method defined in ifslab, private ones too."""
    for info in pkgutil.iter_modules(ifslab.__path__):
        mod = importlib.import_module(f"ifslab.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for meth, f in vars(obj).items():
                    if inspect.isfunction(f):
                        yield f"{mod.__name__}.{name}.{meth}", f


def takers(param):
    return {name for name, f in package_functions() if param in inspect.signature(f).parameters}


def test_only_the_membership_entry_points_take_tol():
    assert takers("tol") == TOL_TAKERS


def test_the_tol_check_sees_private_functions():
    names = {name for name, _ in package_functions()}
    assert {"ifslab.addresses._chain", "ifslab.geometry._inside", "ifslab.core._children",
            "ifslab.addresses.PrefixTree.__init__"} <= names


def test_no_function_takes_a_node_budget():
    assert takers("node_budget") == set()


def test_no_function_takes_a_margin():
    # an interior margin is a negative `tol`
    assert takers("margin") == set()


def certificate_sources(source, module):
    """(line, what) of every no-holes certificate in `source` that bypasses the one rule.

    Every `no_holes_certified=` keyword must read `no_holes_sufficient(...)[...]`,
    and only the conditions module, which defines it, may call `pedicini_holds`.
    """
    def called(node, name):
        f = node.func if isinstance(node, ast.Call) else None
        return name in (getattr(f, "id", None), getattr(f, "attr", None))

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.keyword) and node.arg == "no_holes_certified":
            v = node.value
            if not (isinstance(v, ast.Subscript) and called(v.value, "no_holes_sufficient")):
                found.append((v.lineno, "no_holes_certified=" + ast.unparse(v)))
        elif called(node, "pedicini_holds") and module != "conditions":
            found.append((node.lineno, "pedicini_holds"))
    return sorted(found)


@pytest.mark.parametrize("path", SRC_MODULES, ids=[str(p.relative_to(ROOT)) for p in SRC_MODULES])
def test_every_no_holes_certificate_reads_the_one_rule(path):
    assert certificate_sources(path.read_text(encoding="utf-8"), path.stem) == []


def test_the_check_sees_another_certificate():
    src = ("f(x, no_holes_certified=C.no_holes_sufficient(s)[0])\n"
           "f(x, no_holes_certified=pedicini_holds(A, lam)[0])\n"
           "f(x, no_holes_certified=True)\nok = pedicini_holds(A, lam)\n")
    assert certificate_sources(src, "conditions") == [(2, "no_holes_certified=pedicini_holds(A, lam)[0]"),
                                                     (3, "no_holes_certified=True")]
    assert certificate_sources(src, "cli")[-1] == (4, "pedicini_holds")


def second_projections(source, module):
    """(line, call) of every digit-word projection in `source` made outside `core`'s kernel.

    No module calls `einsum`, whose order of summation is numpy's, and only
    `core`, which defines the batched projections, calls `project_prefix`.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "einsum" or (name == "project_prefix" and module != "core"):
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", SRC_MODULES, ids=[str(p.relative_to(ROOT)) for p in SRC_MODULES])
def test_one_batched_projection(path):
    assert second_projections(path.read_text(encoding="utf-8"), path.stem) == []


def test_the_check_sees_a_second_projection():
    src = ("x = np.einsum('t,ntd->nd', w, P)\ny = project_prefix(s, u, z)\n"
           "z = core.project_prefix(s, u, z)\nv = project_words(s, d, c)\n")
    assert second_projections(src, "measure") == [(1, "einsum"), (2, "project_prefix"),
                                                  (3, "project_prefix")]
    assert second_projections(src, "core") == [(1, "einsum")]


SCALAR_KERNELS = {"_children"}


def scalar_kernel_reads(source, module):
    """(line, name) of every read or import of the scalar kernel outside `core` and `addresses`.

    `core` defines `_children`, the one scalar kernel on both arithmetics,
    and `addresses` walks it, forced chains through `_chain`; any other
    module that wants a forced chain reads it from `addresses`, so no
    second chain loop grows elsewhere.
    """
    if module in ("core", "addresses"):
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        name = (getattr(node, "id", None) if isinstance(node, ast.Name) else
                getattr(node, "attr", None) if isinstance(node, ast.Attribute) else
                getattr(node, "name", None) if isinstance(node, ast.alias) else None)
        if name in SCALAR_KERNELS:
            found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", SRC_MODULES, ids=[str(p.relative_to(ROOT)) for p in SRC_MODULES])
def test_only_core_and_addresses_read_the_scalar_kernels(path):
    assert scalar_kernel_reads(path.read_text(encoding="utf-8"), path.stem) == []


def test_the_check_sees_a_scalar_kernel_read():
    src = ("from .core import _children, _children_many\nimport ifslab.core as core\n"
           "kids = core._children(s, x)\nk = _children(s, r)\nf = map(_children, rs)\n"
           "ok = _children_many(s, X)\n")
    assert scalar_kernel_reads(src, "triangle") == [(1, "_children"), (3, "_children"),
                                                    (4, "_children"), (5, "_children")]
    assert scalar_kernel_reads(src, "addresses") == scalar_kernel_reads(src, "core") == []


NODE_FORMAT = {"_state", "_step", "int_steps"}


def node_format_reads(source, module):
    """(line, what) of every read of the integer-state node format, or second point reader, outside `core`.

    `core` reads a walk's point into its root node in `_root` and steps
    nodes in `_children`, so only it reads `_state`, `_step` and
    `int_steps`.  Another module imports `_root` from `core` and defines
    no reader of its own, so no walk builds its nodes another way.
    """
    if module == "core":
        return []
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name in NODE_FORMAT or (a.name == "_root" and node.module != "core")]
        elif isinstance(node, ast.FunctionDef) and node.name == "_root":
            found.append((node.lineno, "def _root"))
        elif isinstance(node, ast.Name) and node.id in NODE_FORMAT:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and (node.attr in NODE_FORMAT or (
                node.attr == "_root" and getattr(node.value, "id", None) != "core")):
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", SRC_MODULES, ids=[str(p.relative_to(ROOT)) for p in SRC_MODULES])
def test_only_core_knows_the_node_format(path):
    assert node_format_reads(path.read_text(encoding="utf-8"), path.stem) == []


def test_the_check_sees_a_node_format_read():
    src = ("from .core import _root, _state\nfrom .addresses import _root\n"
           "n = core._step(s, q, c, v, qu)\nq = sys.int_steps[0]\n"
           "def _root(sys, x):\n    return x\n"
           "ok = core._root(sys, x)\nr = addresses._root(sys, x)\nk = _state(x)\n")
    assert node_format_reads(src, "triangle") == [(1, "_state"), (2, "_root"), (3, "_step"),
                                                  (4, "int_steps"), (5, "def _root"), (8, "_root"),
                                                  (9, "_state")]
    assert node_format_reads(src, "core") == []


CHAIN_KINDS = {"unique-by-cycle", "forced-prefix-then-branch", "dead-end", "exhausted"}
CHAIN_FIELDS = {"entry_depth", "period"}


def second_chain_records(source, module):
    """(line, what) of every forced-chain record or walker read outside its one home.

    `addresses` defines `ForcedChain` and its `ChainKind`, and walks
    chains in `_chain`; `triangle`'s digit forcing reads `_chain` too.  A
    class elsewhere that holds a chain kind's value or a cycle field, or a
    read of `_chain` from a third module, is a second shape of the record.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and module != "addresses":
            for n in ast.walk(node):
                if isinstance(n, ast.Constant) and n.value in CHAIN_KINDS:
                    found.append((n.lineno, f"{node.name}: {n.value}"))
                elif isinstance(n, ast.AnnAssign) and getattr(n.target, "id", None) in CHAIN_FIELDS:
                    found.append((n.lineno, f"{node.name}.{n.target.id}"))
        name = (getattr(node, "id", None) if isinstance(node, ast.Name) else
                getattr(node, "attr", None) if isinstance(node, ast.Attribute) else
                getattr(node, "name", None) if isinstance(node, ast.alias) else None)
        if name == "_chain" and module not in ("addresses", "triangle"):
            found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", SRC_MODULES, ids=[str(p.relative_to(ROOT)) for p in SRC_MODULES])
def test_one_forced_chain_record(path):
    assert second_chain_records(path.read_text(encoding="utf-8"), path.stem) == []


def test_the_check_sees_a_second_chain_record():
    src = ("import enum\nfrom .addresses import _chain\n"
           "class Kind(enum.Enum):\n    CYCLE = 'unique-by-cycle'\n"
           "class Result:\n    step: int\n    period: int | None\n"
           "r = addresses._chain(s, True, x, 9)\n")
    assert second_chain_records(src, "cli") == [(2, "_chain"), (4, "Kind: unique-by-cycle"),
                                                (7, "Result.period"), (8, "_chain")]
    assert second_chain_records(src, "triangle") == [(4, "Kind: unique-by-cycle"), (7, "Result.period")]
    assert second_chain_records(src, "addresses") == []


def float_facet_reads(source, module):
    """(line, function) of every read of `float_halfspaces` outside `geometry._inside`.

    The float facet columns are the batched membership test's own layout:
    only its one facet loop reads them, so no second float membership
    test, rounding in another order, grows beside it.
    """
    where = {}
    tree = ast.parse(source)
    for fn in ast.walk(tree):  # outer functions first, so the innermost name wins
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where.update({id(n): fn.name for n in ast.walk(fn)})
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "float_halfspaces":
            fn = where.get(id(node), "<module>")
            if (module, fn) != ("geometry", "_inside"):
                found.append((node.lineno, fn))
    return sorted(found)


@pytest.mark.parametrize("path", SRC_MODULES, ids=[str(p.relative_to(ROOT)) for p in SRC_MODULES])
def test_only_the_batched_facet_loop_reads_the_float_facets(path):
    assert float_facet_reads(path.read_text(encoding="utf-8"), path.stem) == []


def test_the_check_sees_another_float_facet_read():
    src = ("A = omega.float_halfspaces\n"
           "def _inside(poly, cols, tol):\n    A, b, n = poly.float_halfspaces\n"
           "    def inner():\n        return poly.float_halfspaces\n"
           "def contains_many(poly, pts):\n    return poly.float_halfspaces[0]\n")
    assert float_facet_reads(src, "geometry") == [(1, "<module>"), (5, "inner"), (7, "contains_many")]
    assert float_facet_reads(src, "core") == [(1, "<module>"), (3, "_inside"), (5, "inner"),
                                              (7, "contains_many")]
