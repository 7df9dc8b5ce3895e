"""Module boundaries of the package: a name with a leading underscore is
private to the module that defines it, so no other module imports it."""

import ast
from pathlib import Path

import dualrrm

SRC = Path(dualrrm.__file__).resolve().parent


def private_imports(source: str) -> list[str]:
    """Names with one leading underscore that ``source`` imports from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "dualrrm"
        ):
            found += [alias.name for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
    return found


def test_no_module_imports_a_private_name():
    offenders = {path.name: names for path in sorted(SRC.glob("*.py"))
                 if (names := private_imports(path.read_text()))}
    assert offenders == {}


def test_scan_sees_relative_and_absolute_imports():
    source = ("from .policy import _block_budget, episode_eval\n"
              "from dualrrm.graph import _graph\n"
              "from . import __version__\n"
              "from numpy import _core\n")
    assert private_imports(source) == ["_block_budget", "_graph"]
