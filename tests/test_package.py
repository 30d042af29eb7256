"""The package surface: the public name list, and module privacy."""

import ast
from pathlib import Path

import pytest

import boxcalc

SOURCE = Path(boxcalc.__file__).resolve().parent


def test_every_public_name_resolves():
    missing = [name for name in boxcalc.__all__ if not hasattr(boxcalc, name)]
    assert missing == []


def test_public_names_are_sorted_and_unique():
    assert boxcalc.__all__ == sorted(set(boxcalc.__all__))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    siblings = set()  # local names bound to other boxcalc modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and _private(node.attr)
        ):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    assert found == []
