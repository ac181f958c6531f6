"""Every name a `betanewton` module imports is used in that module.

A standard-library stand-in for a linter's unused-import rule: each module
is parsed with `ast`, and a name counts as used when it is read anywhere in
the module or listed in its `__all__`.
"""

import ast
from pathlib import Path

import betanewton

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
