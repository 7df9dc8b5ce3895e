"""Module boundaries of the package: a name with a leading underscore is
private to the module that defines it, so no other module imports it,
every public function or class has a caller outside the tests, and no
function rebinds a module-level name."""

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


def global_statements(source: str) -> list[str]:
    """Names that a ``global`` statement in ``source`` declares."""
    return [name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)
            for name in node.names]


def test_no_module_rebinds_a_global():
    offenders = {path.name: names for path in sorted(SRC.glob("*.py"))
                 if (names := global_statements(path.read_text()))}
    assert offenders == {}


def test_global_scan_sees_nested_functions():
    source = ("STATE = None\n\n"
              "def outer():\n    def inner():\n        global STATE, OTHER\n    return inner\n")
    assert global_statements(source) == ["STATE", "OTHER"]


REPO = Path(__file__).resolve().parent.parent
ORACLE_WAITS_FOR_A_CALLER = {"train_per_mu_oracle"}


def public_definitions(source: str) -> list[str]:
    """Module-level functions and classes of ``source`` without a leading underscore."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(source: str) -> set[str]:
    """Names, attributes, imported names and identifier strings in ``source``;
    a module-level definition's references to its own name are not counted."""
    found = set()
    for stmt in ast.parse(source).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)  # tracing looks functions up by name
        found.discard(own)
    return found


def test_every_public_library_name_has_a_caller_outside_the_tests():
    # a name's own definition, tests/ and bench/test_*.py do not count as callers
    sources = [p for d in ("src", "bench", "tools") for p in sorted((REPO / d).rglob("*.py"))
               if not p.name.startswith("test_")]
    referenced = set().union(*(referenced_names(p.read_text()) for p in sources))
    uncalled = {f"{path.stem}.{name}" for path in sorted((REPO / "src" / "dualrrm").glob("*.py"))
                for name in public_definitions(path.read_text())
                if name not in referenced | ORACLE_WAITS_FOR_A_CALLER}
    assert uncalled == set()


def test_caller_scan_ignores_a_definition_calling_itself():
    source = ("def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
              "class Used:\n    pass\n\n"
              "def user():\n    return Used()\n")
    assert public_definitions(source) == ["lonely", "Used", "user"]
    assert {"lonely", "user"} & referenced_names(source) == set()
    assert "Used" in referenced_names(source)
