"""Static checks on the library source.

Every failure in congsym is a documented exception: never an `assert`,
which `python -O` strips, and never an AssertionError or NotImplementedError
from deep in the stack.  And the library imports neither numpy nor scipy,
whose import every process would pay for.
"""

import ast
import os
import pathlib
import subprocess
import sys

import congsym

FORBIDDEN_RAISES = {"AssertionError", "NotImplementedError"}


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_assert_or_forbidden_raise():
    src = pathlib.Path(congsym.__file__).parent
    modules = sorted(src.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append("%s:%d assert" % (path.name, node.lineno))
            elif (isinstance(node, ast.Raise) and node.exc is not None
                  and _raised_name(node) in FORBIDDEN_RAISES):
                found.append("%s:%d raise %s"
                             % (path.name, node.lineno, _raised_name(node)))
    assert found == []


def test_cli_imports_neither_numpy_nor_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(congsym.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, congsym.cli; "
            "print(sorted({'numpy', 'scipy'} & {m.split('.')[0] "
            "for m in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          check=True, env=env, text=True)
    assert proc.stdout.strip() == "[]"
