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


ROOT = os.path.dirname(os.path.dirname(SRC))


def _defs(tree):
    """(def, owning class name or None) per module-level function and
    method of a parsed module; nested functions are left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, None
        elif isinstance(node, ast.ClassDef):
            yield from ((fn, node.name) for fn in node.body
                        if isinstance(fn, ast.FunctionDef))


def _calls():
    """(call, (rel, line) of the library def whose body holds it, or None)
    per call in src/, tests/ and perfbench/, and the names that imports
    bind under another name."""
    calls, aliases = [], {}
    for top in ("src", "tests", "perfbench"):
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read())
                aliases.update((a.asname, a.name) for node in ast.walk(tree)
                               if isinstance(node, ast.ImportFrom)
                               for a in node.names if a.asname)
                owner = {}
                if top == "src":
                    rel = os.path.relpath(path, SRC)
                    for fn, _cls in _defs(tree):
                        owner.update((id(c), (rel, fn.lineno))
                                     for c in ast.walk(fn)
                                     if isinstance(c, ast.Call))
                calls += [(c, owner.get(id(c))) for c in ast.walk(tree)
                          if isinstance(c, ast.Call)]
    return calls, aliases


def _callee(call, aliases):
    func = call.func
    name = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None
    return aliases.get(name, name)


def test_every_keyword_default_is_passed_by_some_call():
    # an optional parameter that no call sets is a constant spelled as an
    # option; so is one that its calls only set to another such parameter
    # of the caller.  The suite_* entry points are dispatched through SUITES
    calls, aliases = _calls()
    by_name = {}
    for call, caller in calls:
        by_name.setdefault(_callee(call, aliases), []).append((call, caller))
    # ((rel, line), parameter) -> (def name, [(value passed, caller)]),
    # value None for a call that may pass it through * or **
    optional = {}
    for rel, tree in _trees():
        for fn, owner in _defs(tree):
            if fn.name.startswith("suite_"):
                continue
            bound = int(owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list))
            positional = fn.args.posonlyargs + fn.args.args
            params = [(arg.arg, positional.index(arg) - bound)
                      for arg in positional[len(positional)
                                            - len(fn.args.defaults):]]
            params += [(arg.arg, None) for arg, default in zip(
                fn.args.kwonlyargs, fn.args.kw_defaults) if default]
            callee = owner if fn.name == "__init__" else fn.name
            for arg, index in params:
                passed = []
                for call, caller in by_name.get(callee, ()):
                    values = [kw.value for kw in call.keywords
                              if kw.arg == arg]
                    if index is not None and len(call.args) > index:
                        values.append(call.args[index])
                    if any(kw.arg is None for kw in call.keywords) or any(
                            isinstance(a, ast.Starred) for a in call.args):
                        values.append(None)
                    passed += [(value, caller) for value in values]
                optional[(rel, fn.lineno), arg] = (fn.name, passed)
    # a value counts unless it is the caller's own optional parameter of
    # that name and that one is not set either
    live, grown = set(), True
    while grown:
        grown = False
        for key, (_name, passed) in optional.items():
            if key not in live and any(
                    not (isinstance(value, ast.Name)
                         and (caller, value.id) in optional
                         and (caller, value.id) not in live)
                    for value, caller in passed):
                live.add(key)
                grown = True
    unpassed = sorted("%s:%d %s(%s)" % (rel, line, name, arg)
                      for ((rel, line), arg), (name, _p) in optional.items()
                      if ((rel, line), arg) not in live)
    assert not unpassed
