"""Every name a module lists in ``__all__`` resolves, so no deleted name lingers, and the
package star-imports its modules, so their ``__all__`` lists are the one declaration of
what it exports.  The README's Python examples run as written.  numpy is the only
runtime dependency."""

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


def test_package_exports_exactly_its_modules_all_lists():
    tree = ast.parse(Path(entredist.__file__).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    not_star = [ast.unparse(node) for node in imports
                if not (isinstance(node, ast.ImportFrom) and node.level == 1
                        and node.module in MODULES and [a.name for a in node.names] == ["*"])]
    assert not not_star, f"entredist/__init__.py has imports other than star imports: {not_star}"
    lists = {node.module: importlib.import_module(f"entredist.{node.module}").__all__
             for node in imports}
    owners = {}
    for module, names in lists.items():
        for name in names:
            owners.setdefault(name, []).append(module)
    # within one module a repeat is a slip; across two, one star import shadows the other
    twice = {name: modules for name, modules in owners.items() if len(modules) > 1}
    assert not twice, f"names listed twice in the modules' __all__: {twice}"
    public = {name for name in dir(entredist) if not name.startswith("_")}
    assert public - set(MODULES) == set(owners), \
        f"entredist exports {sorted(public - set(MODULES) ^ set(owners))} beyond or short of __all__"


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


def test_only_qcore_names_the_marginal_halves():
    # state_marginal is the one marginal route; its pure and mixed halves stay inside qcore
    named = [f"{path.name}: {name}" for path in sorted(Path(entredist.__file__).parent.glob("*.py"))
             if path.name != "qcore.py"
             for name in ("vector_marginal", "matrix_marginal") if name in path.read_text()]
    assert not named, f"modules other than qcore.py name a marginal half: {named}"


def test_readme_python_blocks_run():
    # the blocks build on each other, so they share one namespace; a name the
    # package no longer has fails here instead of lingering in the docs
    readme = Path(__file__).parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), flags=re.M | re.S)
    assert blocks, "README.md has no python blocks"
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
