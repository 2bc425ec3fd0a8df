"""Checks over the library's source text."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "wittlab")


def test_library_has_no_assert_statements():
    # python -O strips assert statements: a library check must raise
    found = []
    for folder, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), filename=path)
                found += ["%s:%d" % (os.path.relpath(path, SRC), node.lineno)
                          for node in ast.walk(tree)
                          if isinstance(node, ast.Assert)]
    assert not found
