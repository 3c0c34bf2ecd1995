"""toricell has three error classes, all in errors.py, one for each
nonzero exit code of the CLI: InputError (2), ConstructionError (1) and
InternalError (3).  No other module defines an exception, and every raise
in src/toricell names one of the three, so the exit code of a failure is
fixed where it is raised."""

import ast
import builtins
import os

from test_dead_names import PACKAGE, _parse, _python_files

ERRORS = {"InputError", "ConstructionError", "InternalError"}


def _base_names(node):
    for base in node.bases:
        if isinstance(base, ast.Name):
            yield base.id
        elif isinstance(base, ast.Attribute):
            yield base.attr


def _is_exception(name):
    builtin = getattr(builtins, name, None)
    return (isinstance(builtin, type) and issubclass(builtin, BaseException)
            or name in ERRORS or name.endswith(("Error", "Exception")))


def exception_classes():
    """{file: [class name]} for each class of src/toricell that derives
    from an exception."""
    found = {}
    for path in _python_files(PACKAGE):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.ClassDef) and any(
                    map(_is_exception, _base_names(node))):
                found.setdefault(os.path.basename(path), []).append(node.name)
    return found


def stray_raises():
    """(file, line) of each raise in src/toricell that does not name one of
    the three classes: a bare re-raise, a builtin or any other class."""
    found = []
    for path in _python_files(PACKAGE):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if not (isinstance(exc, ast.Name) and exc.id in ERRORS):
                found.append((os.path.basename(path), node.lineno))
    return found


def test_three_error_classes_all_in_errors_module():
    assert exception_classes() == {
        "errors.py": ["InputError", "ConstructionError", "InternalError"]}


def test_every_raise_names_one_of_the_three():
    stray = stray_raises()
    assert not stray, "raise of another class: " + ", ".join(
        f"{f}:{line}" for f, line in stray)
