"""Every name a `betanewton` module imports is used, every export is used
by the package itself, and scipy loads only at the first LU factorization.

A standard-library stand-in for a linter's unused-import rule: each module
is parsed with `ast`, and a name counts as used when it is read anywhere in
the module or listed in its `__all__`.  The public-surface rule parses the
package the same way: `__all__` lists exactly the names `__init__` imports,
and each of them is read, as a name or an attribute, in some module other
than `__init__`, so no export serves the tests alone.
"""

import ast
from pathlib import Path

import betanewton
from conftest import fresh_stdout as _fresh_stdout

SRC = Path(betanewton.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by import statements in source and never used."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scanner_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from typing import List, Tuple\n"
              "from .core import iterate\n"
              "__all__ = ['iterate']\n"
              "def f(x: List[int]):\n    return np.sum(x)\n")
    assert unused_imports(source) == ["Tuple (line 4)", "os (line 2)"]


def test_no_unused_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def _exports(source: str) -> tuple:
    """(names the module imports, names listed in its __all__)."""
    imported, listed = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            listed += ast.literal_eval(node.value)
    return imported, listed


def _reads(source: str) -> set:
    """Names read in source, bare or as an attribute."""
    reads = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
    return reads


def surface_faults(init_source: str, module_sources: list) -> list:
    """Breaches of the public-surface rule, given __init__ and the other modules."""
    imported, listed = _exports(init_source)
    faults = [f"{name}: imported, not in __all__" for name in sorted(set(imported) - set(listed))]
    faults += [f"{name}: in __all__, not imported" for name in sorted(set(listed) - set(imported))]
    read = set().union(*map(_reads, module_sources))
    faults += [f"{name}: exported, never read in the package"
               for name in sorted(set(listed) - read)]
    return faults


def test_surface_scanner_finds_faults():
    init = ("from .core import iterate, helper, extra\n"
            "from .multivariate import solve, unread, hidden\n"
            "__all__ = ['iterate', 'helper', 'stale', 'solve', 'unread']\n")
    core = "def run(p):\n    return iterate(core.helper(multivariate.solve(p)))\n"
    assert surface_faults(init, [core]) == [
        "extra: imported, not in __all__",
        "hidden: imported, not in __all__",
        "stale: in __all__, not imported",
        "stale: exported, never read in the package",
        "unread: exported, never read in the package",
    ]


def test_public_surface_is_used_by_the_package():
    modules = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"]
    assert surface_faults((SRC / "__init__.py").read_text(encoding="utf-8"), modules) == []


_SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"


def test_cli_import_loads_no_scipy():
    assert _fresh_stdout("import sys, betanewton, betanewton.cli\n" + _SCIPY_MODULES) == ["[]"]


def test_scipy_loads_at_the_first_factorization():
    lines = _fresh_stdout("import sys, betanewton.cli\n"
                          "from betanewton import *\n"
                          + _SCIPY_MODULES +
                          "solve_sync(random_kuramoto(3, seed=0))\n"
                          "print('scipy.linalg' in sys.modules)\n")
    assert lines == ["[]", "True"]
