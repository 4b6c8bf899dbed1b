"""The package namespace: every export resolves and none is missing, and
every error class is raised somewhere."""

import ast
from pathlib import Path

import scext
from scext import errors


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


def _raised_names() -> set[str]:
    """Names of the exception classes ``raise`` statements under src/scext
    raise, by a bare name or as a module attribute."""
    names = set()
    for path in Path(scext.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    # an error class that nothing raises, nor any subclass of it, has
    # outlived the code that raised it
    raised = [getattr(errors, n) for n in _raised_names() if hasattr(errors, n)]
    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and c.__module__ == errors.__name__
    ]
    assert classes
    for cls in classes:
        assert any(issubclass(r, cls) for r in raised), cls.__name__


def test_no_class_has_a_single_point_twin():
    # every quantity has one code path, the batch one: a public class that
    # defines both ``name`` and ``name_many`` keeps a second path to one value
    classes = [c for c in map(scext.__dict__.get, scext.__all__) if isinstance(c, type)]
    assert classes
    for cls in classes:
        methods = {n for c in cls.__mro__ for n in vars(c) if not n.startswith("_")}
        twins = sorted(n for n in methods if n + "_many" in methods)
        assert not twins, f"{cls.__name__}: {twins}"
