"""Every name a module lists in ``__all__`` resolves, so no deleted name lingers, and the
package re-exports only names its modules list, so the two lists cannot drift."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import entredist

MODULES = sorted(info.name for info in pkgutil.iter_modules(entredist.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"entredist.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"entredist.{name}.__all__ lists missing names {missing}"


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(entredist.__file__).read_text())
    unlisted = [
        f"{node.module}.{alias.name}"
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name not in importlib.import_module(f"entredist.{node.module}").__all__
    ]
    assert not unlisted, f"entredist/__init__.py imports names missing from __all__: {unlisted}"
