"""Every function and method defined in src/toricell is used somewhere,
and no module of src/toricell imports another module's private name.

A name counts as used when it occurs as an identifier (a bare name, an
attribute, an import or a keyword argument) in src/ or perfbench/
outside its own definition; a use in tests/ does not count, since API
that only tests call is kept for them alone, and neither does a
re-export in the package's __init__.py, which no caller needs to reach
the module's own name.  The check is by name only,
so two definitions sharing a name cover each other; it catches API that
nothing calls, not every dead branch.  A name one module shares with another is
part of its interface, so it carries no leading underscore.

Every parameter with a default is passed at some call in src/ or
perfbench/, matched by the called name as above: an option that only
tests set is API kept for the tests alone.

Every name a module of src/toricell imports occurs in that module as a
bare name, so a deletion leaves no stale import behind; the package's
__init__.py, whose imports are its re-exports, is exempt.
"""

import ast
import math
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "toricell")
REEXPORTS = os.path.abspath(os.path.join(PACKAGE, "__init__.py"))
CALLERS = [os.path.join(ROOT, d) for d in ("src", "perfbench")]


def _python_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


class _Names(ast.NodeVisitor):
    """Collects definitions and the identifiers used outside of them."""

    def __init__(self):
        self.defined = []   # (name, line)
        self.used = set()
        self._inside = []   # names of the enclosing definitions

    def _definition(self, node):
        self.defined.append((node.name, node.lineno))
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _definition

    def _use(self, name):
        if name not in self._inside:
            self.used.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name.rsplit(".", 1)[-1])

    def visit_keyword(self, node):
        if node.arg is not None:
            self._use(node.arg)
        self.generic_visit(node)


def unused_definitions():
    used = set()
    defined = []
    for top in CALLERS:
        for path in _python_files(top):
            names = _Names()
            names.visit(_parse(path))
            if os.path.abspath(path) != REEXPORTS:
                used |= names.used
            if os.path.dirname(os.path.abspath(path)) == \
                    os.path.abspath(PACKAGE):
                defined += [(os.path.basename(path), name, line)
                            for name, line in names.defined]
    return sorted((f, name, line) for f, name, line in defined
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in used)


def test_no_unused_functions_or_methods():
    dead = unused_definitions()
    assert not dead, "defined but never used: " + ", ".join(
        f"{f}:{line} {name}" for f, name, line in dead)


def private_imports():
    """(file, line, name) for each underscore name that a module of
    src/toricell imports from another module, at any nesting level."""
    found = []
    for path in _python_files(PACKAGE):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ImportFrom):
                found += [(os.path.basename(path), node.lineno, alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")]
    return sorted(found)


def test_no_private_names_imported_across_modules():
    shared = private_imports()
    assert not shared, "private name imported from another module: " + \
        ", ".join(f"{f}:{line} {name}" for f, line, name in shared)


# functions whose defaulted parameters exist for tests to set
OPTION_EXEMPT = {("cli.py", "main")}


def defaulted_parameters():
    """(file, line, called name, parameter, positional index or None) for
    each parameter with a default of a function or method defined in
    src/toricell.  A method's index skips self, and __init__ is called by
    its class name."""
    found = []
    for path in _python_files(PACKAGE):
        fname = os.path.basename(path)
        tree = _parse(path)
        owner = {f: c.name for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (fname, node.name) in OPTION_EXEMPT:
                continue
            cls = owner.get(node)
            name = cls if cls and node.name == "__init__" else node.name
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if cls and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list) else 0
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                found.append((fname, node.lineno, name, positional[i].arg,
                              i - skip))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    found.append((fname, node.lineno, name, arg.arg, None))
    return found


def passed_options():
    """({called name: keywords passed}, {called name: most positional
    arguments passed}) over every call in src/ and perfbench/.  A **
    argument shows as the keyword None, and a starred argument passes
    every position."""
    keywords, widths = {}, {}
    for top in CALLERS:
        for path in _python_files(top):
            for node in ast.walk(_parse(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                if name is None:
                    continue
                keywords.setdefault(name, set()).update(
                    k.arg for k in node.keywords)
                width = math.inf if any(
                    isinstance(a, ast.Starred) for a in node.args) \
                    else len(node.args)
                widths[name] = max(widths.get(name, 0), width)
    return keywords, widths


def options_only_tests_set():
    keywords, widths = passed_options()
    unset = []
    for fname, line, name, param, index in defaulted_parameters():
        passed = keywords.get(name, set())
        if param in passed or None in passed:
            continue
        if index is not None and widths.get(name, 0) > index:
            continue
        unset.append((fname, line, name, param))
    return sorted(unset)


def test_no_option_only_tests_set():
    """Every defaulted parameter of a src/toricell function is passed, by
    keyword or by position, at some call in src/ or perfbench/; an option
    that only tests set is API kept for them alone."""
    unset = options_only_tests_set()
    assert not unset, "options no caller in src/ or perfbench/ sets: " + \
        ", ".join(f"{f}:{line} {name}({param}=)"
                  for f, line, name, param in unset)


def unused_imports():
    """(file, line, name) for each name that a module of src/toricell
    other than __init__.py imports and never uses as a bare name."""
    found = []
    for path in _python_files(PACKAGE):
        if os.path.abspath(path) == REEXPORTS:
            continue
        tree = _parse(path)
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
            else:
                continue
            found += [(os.path.basename(path), node.lineno, name)
                      for name in names if name not in used]
    return sorted(found)


def test_no_unused_imports():
    stale = unused_imports()
    assert not stale, "imported but never used: " + ", ".join(
        f"{f}:{line} {name}" for f, line, name in stale)
