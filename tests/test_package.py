"""Package hygiene: the public names resolve, no module imports a name it
never uses, and one class holds the immutability rule and stores the
value types' fields."""

import ast
import importlib
import os
import pkgutil

import merohecke
from merohecke.qseries import Immutable

SRC = os.path.dirname(merohecke.__file__)


def test_all_names_resolve():
    missing = [name for name in merohecke.__all__ if not hasattr(merohecke, name)]
    assert not missing


def _unused_imports(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    unused = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname != "__init__.py":
            found = _unused_imports(os.path.join(SRC, fname))
            if found:
                unused[fname] = found
    assert not unused


def test_only_immutable_defines_setattr():
    # the value types inherit qseries.Immutable instead of each carrying
    # its own copy of the rule
    found = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                tree = ast.parse(fh.read(), fname)
            found += ["%s:%s" % (fname, node.name) for node in ast.walk(tree)
                      if isinstance(node, ast.ClassDef)
                      and any(isinstance(d, ast.FunctionDef) and d.name == "__setattr__"
                              for d in node.body)]
    assert found == ["qseries.py:Immutable"]


def _object_setattr_sites(tree, fname):
    # "file:Class.function" for each use of object.__setattr__
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__setattr__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                sites.append("%s:%s" % (fname, ".".join(scope)))
            visit(child, scope)

    visit(tree, [])
    return sites


def test_only_qseries_stores_fields():
    # value types pass their fields to Immutable.__init__; only the trusted
    # constructor of kernel results stores its own
    sites = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                sites += _object_setattr_sites(ast.parse(fh.read(), fname), fname)
    assert sorted(set(sites)) == ["qseries.py:Immutable.__init__", "qseries.py:LaurentSeries._make"]


def test_value_types_outside_qseries_inherit_their_equality():
    for info in pkgutil.iter_modules(merohecke.__path__):
        importlib.import_module("merohecke." + info.name)
    found, todo = [], [Immutable]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if (cls.__module__.startswith("merohecke.") and cls.__module__ != "merohecke.qseries"
                and "__eq__" in vars(cls)):
            found.append(cls.__qualname__)
    assert not found
