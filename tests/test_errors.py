"""Every exception the package raises is one of its own error classes."""

import ast
import pathlib

import qngm
from qngm import errors

SOURCE = pathlib.Path(qngm.__file__).parent
# a module's __getattr__ must raise AttributeError for a missing name
EXEMPT = {("__init__.py", "AttributeError")}


def raised_classes():
    """(file, line, raised expression) for every raise with an exception in the package."""
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:  # a bare raise re-raises
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield path.name, node.lineno, ast.unparse(exc)


def test_every_raise_is_a_package_error():
    own = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    found = list(raised_classes())
    assert len(found) > 50  # the walk reached the package's raises
    stray = [(f, n, name) for f, n, name in found if name not in own and (f, name) not in EXEMPT]
    assert stray == []
