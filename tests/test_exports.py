"""Every name a module lists in ``__all__`` resolves, so no deleted name lingers."""

import importlib
import pkgutil

import pytest

import entredist

MODULES = sorted(info.name for info in pkgutil.iter_modules(entredist.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"entredist.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"entredist.{name}.__all__ lists missing names {missing}"
