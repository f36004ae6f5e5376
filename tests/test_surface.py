"""No dead surface: every function, class and method that ``src/hookcomb``
defines is used by the package itself or exported from ``hookcomb``.
A helper that only the tests call belongs in ``tests/conftest.py``."""

import ast
from pathlib import Path

import hookcomb

SOURCES = sorted(Path(hookcomb.__file__).parent.glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_definition_has_a_production_reader():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    used |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    unused = sorted(
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used | set(hookcomb._SOURCES)
    )
    assert unused == []
