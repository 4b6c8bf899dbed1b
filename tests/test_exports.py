"""The package namespace: every export resolves and none is missing."""

import ast
from pathlib import Path

import scext


def _imported_public_names() -> set[str]:
    tree = ast.parse(Path(scext.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_export_resolves():
    assert len(set(scext.__all__)) == len(scext.__all__)
    for name in scext.__all__:
        assert getattr(scext, name, None) is not None, name


def test_all_lists_every_public_import():
    assert set(scext.__all__) == _imported_public_names()
