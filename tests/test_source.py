"""Static checks on the library source.

Every failure in congsym is a documented exception: never an `assert`,
which `python -O` strips, and never an AssertionError or NotImplementedError
from deep in the stack.  The library imports neither numpy nor scipy, whose
import every process would pay for; the set-up, the plus space,
`congsym dims` and the eigensystems of small groups load no sympy, whose
import costs more than all of their work: sympy comes in only to factor a
polynomial that no small prime proves irreducible.  Every library name the
benchmark's tracer wraps exists, so a rename fails here and not only in a
traced run.  And every library function, class and method has a caller
outside the unit tests.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import congsym

FORBIDDEN_RAISES = {"AssertionError", "NotImplementedError"}

# library functions kept for the unit tests alone
TEST_ONLY_HELPERS = set()


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


def _packages_loaded_after(code):
    """The top-level packages among numpy, scipy and sympy that a fresh
    interpreter has loaded after running code."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(congsym.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code += ("\nimport sys\nprint(sorted({'numpy', 'scipy', 'sympy'} & "
             "{m.split('.')[0] for m in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          check=True, env=env, text=True)
    return proc.stdout.strip().splitlines()[-1]


def test_cli_imports_neither_numpy_nor_scipy():
    """Nor sympy: importing the command line loads none of the three."""
    assert _packages_loaded_after("import congsym.cli") == "[]"


@pytest.mark.parametrize("code", [
    "from congsym.families import build_family\n"
    "from congsym.groups import coset_table\n"
    "from congsym.spaces import build_space\n"
    "from congsym.spectra import SpectralContext\n"
    "ctx = SpectralContext(build_space(coset_table(\n"
    "    build_family('ns_plus', 13)), 2))\n"
    "assert ctx.kind == 'plus' and ctx.dim == 3",
    "from congsym.cli import main\n"
    "assert main(['dims', 'ns_plus', '13']) == 0",
    "from congsym.cli import main\n"
    "assert main(['eigensystem', 'ns_plus', '13']) == 0",
    "from congsym.cli import main\n"
    "assert main(['eigensystem', 'gamma0', '11']) == 0",
], ids=["plus-space", "cli-dims", "eigensystem-ns_plus-13",
        "eigensystem-gamma0-11"])
def test_set_up_and_plus_space_never_import_sympy(code):
    """The set-up, the plus space, `congsym dims` and these eigensystems
    run on Fractions, the in-house sparse integer rows and eliminations
    mod primes; sympy comes in only to factor a polynomial that no small
    prime proves irreducible (the cubic field of ns_plus 13 is proven
    irreducible mod 2)."""
    assert _packages_loaded_after(code) == "[]"


def test_traced_names_exist():
    """Each congsym module attribute perfbench/attempt.py:install_trace
    reads, wraps or replaces, found in its source: the arguments of
    tracer.wrap(module, "name", ...) and every module.name it spells out."""
    path = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
            / "attempt.py")
    tree = ast.parse(path.read_text(), str(path))
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "install_trace")
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(func)
               if isinstance(node, ast.ImportFrom)
               and node.module == "congsym"
               for alias in node.names}
    names = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"):
            mod, attr = node.args[:2]
            names.add((mod.id, attr.value))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            names.add((node.value.id, node.attr))
    assert len(names) >= 12
    missing = sorted("%s.%s" % (mod, attr) for mod, attr in names
                     if not hasattr(importlib.import_module(
                         "congsym." + modules[mod]), attr))
    assert missing == []


def _names_used(tree):
    """Every identifier a tree names: names, attributes, and string
    constants (the tracer wraps functions by their names as strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _defs_and_uses(node, where, defined):
    """The names node uses, less each def's or class's own name inside its
    own body (naming itself there does not call it); every def and class
    in node, and every method of a class but the dunder ones, is added to
    defined as where:name."""
    if isinstance(node, ast.ClassDef):
        defined["%s:%s" % (where, node.name)] = node.name
        used = set()
        for item in node.body:
            used |= _defs_and_uses(item, "%s:%s" % (where, node.name),
                                   defined)
        used |= set().union(*map(_names_used, node.bases + node.keywords
                                 + node.decorator_list))
        used.discard(node.name)
        return used
    used = _names_used(node)
    if isinstance(node, ast.FunctionDef):
        if not (node.name.startswith("__") and node.name.endswith("__")):
            defined["%s:%s" % (where, node.name)] = node.name
        used.discard(node.name)
    return used


def test_every_library_function_has_a_caller():
    """Each top-level def or class of congsym, and each method of its
    classes but the dunder ones, is named outside its own body: in a
    library module, in perfbench/attempt.py or in the acceptance tests.  A
    name only the unit tests reach is dead code."""
    root = pathlib.Path(__file__).resolve().parents[1]
    defined = {}
    used = set()
    for path in sorted(pathlib.Path(congsym.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            used |= _defs_and_uses(node, path.name, defined)
    for path in (root / "perfbench" / "attempt.py",
                 root / "tests" / "test_acceptance.py"):
        used |= _names_used(ast.parse(path.read_text(), str(path)))
    missing = sorted(where for where, name in defined.items()
                     if name not in used and name not in TEST_ONLY_HELPERS)
    assert missing == []
