"""Every name a library module imports is used in that module.

__init__.py is exempt: its imports are the package's re-exports.  A name
counts as used when the module reads it anywhere (a name or the root of an
attribute chain) or lists it in __all__.

No module imports dataclasses: the records are NamedTuples, so importing the
package and its CLI loads neither dataclasses nor the inspect it pulls in.
The CLI reads argv by its own table, so neither argparse nor the gettext that
argparse pulls in loads either.
Nor does it load hashlib, which only --json digests need, or the reproduce
battery, which the package loads on first access to reproduce or run_all.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nicebasis"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    tree = ast.parse((PACKAGE / module).read_text())
    assert sorted(set(imported_names(tree)) - used_names(tree)) == []


def test_the_modules_are_found():
    assert {"lie.py", "linalg.py", "cli.py"} <= set(MODULES)


def imported_modules(tree):
    """The top-level name of every module the tree imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    assert "dataclasses" not in set(imported_modules(ast.parse((PACKAGE / module).read_text())))


def test_the_import_scan_sees_typing():
    assert "typing" in set(imported_modules(ast.parse((PACKAGE / "nice.py").read_text())))


def test_importing_the_package_and_cli_loads_no_dataclasses_inspect_argparse_or_gettext():
    code = ("import sys, nicebasis, nicebasis.cli; "
            "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'nicebasis.cli'}"
            " & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split("\n")[0] == "['nicebasis.cli']"


def test_importing_the_package_and_cli_loads_neither_hashlib_nor_the_battery():
    code = ("import sys, nicebasis, nicebasis.cli; "
            "print(sorted({'hashlib', 'nicebasis.reproduce'} & set(sys.modules))); "
            "print(nicebasis.run_all is nicebasis.reproduce.run_all, "
            "nicebasis.run_all.__module__, {'reproduce', 'run_all'} <= set(nicebasis.__all__))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "True nicebasis.reproduce True"]
