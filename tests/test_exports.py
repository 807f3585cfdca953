"""Every name a module lists in ``__all__`` resolves, so no deleted name lingers, and the
package re-exports only names its modules list, so the two lists cannot drift.  The
README's Python examples run as written.  numpy is the only runtime dependency."""

import ast
import importlib
import pkgutil
import re
import sys
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


def test_modules_import_only_numpy_and_the_standard_library():
    # a stray import would also grow the start-up time of every command
    stray = []
    for path in sorted(Path(entredist.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] != "numpy"
                      and name.split(".")[0] not in sys.stdlib_module_names]
    assert not stray, f"top-level imports beyond numpy and the standard library: {stray}"


def test_readme_python_blocks_run():
    # the blocks build on each other, so they share one namespace; a name the
    # package no longer has fails here instead of lingering in the docs
    readme = Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), flags=re.M | re.S)
    assert blocks, "README.md has no python blocks"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
