"""Checks over the library's source text."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "wittlab")


def _trees():
    """(path relative to the package, parsed module) per library file."""
    for folder, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    yield (os.path.relpath(path, SRC),
                           ast.parse(fh.read(), filename=path))


def test_library_has_no_assert_statements():
    # python -O strips assert statements: a library check must raise
    found = []
    for rel, tree in _trees():
        found += ["%s:%d" % (rel, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found


def test_library_uses_every_name_it_imports():
    # the repository runs no linter; the package __init__ may import
    # names to re-export them
    unused = []
    for rel, tree in _trees():
        if rel == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(bound, node.lineno)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (rel, line, bound)
                   for bound, line in imported.items() if bound not in used]
    assert not unused


def _referenced_names(node):
    """The names a node reads: bare names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_private_helper_is_called():
    # a module-level _name function or class that no other top-level
    # statement of the library references (its own body aside) is dead
    nodes = [(rel, node, _referenced_names(node))
             for rel, tree in _trees() for node in tree.body]
    unused = ["%s:%d %s" % (rel, node.lineno, node.name)
              for rel, node, _names in nodes
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.startswith("_")
              and not node.name.startswith("__")
              and not any(node.name in names
                          for _rel, other, names in nodes if other is not node)]
    assert not unused
