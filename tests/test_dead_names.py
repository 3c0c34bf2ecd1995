"""Every function and method defined in src/toricell is used somewhere,
and no module of src/toricell imports another module's private name.

A name counts as used when it occurs as an identifier (a bare name, an
attribute, an import or a keyword argument) in src/, tests/ or
perfbench/ outside its own definition.  The check is by name only, so two
definitions sharing a name cover each other; it catches API that nothing
calls, not every dead branch.  A name one module shares with another is
part of its interface, so it carries no leading underscore.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "toricell")
SEARCHED = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]


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
    for top in SEARCHED:
        for path in _python_files(top):
            names = _Names()
            names.visit(_parse(path))
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
