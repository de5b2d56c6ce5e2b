"""Package hygiene: the public names resolve, no module imports a name it
never uses, and one class holds the immutability rule."""

import ast
import os

import merohecke

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
