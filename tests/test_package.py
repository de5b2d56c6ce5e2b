"""Package hygiene: the public names resolve, and no module imports a name
it never uses."""

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
