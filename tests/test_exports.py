"""Every exported name resolves, and the package imports only exported names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import strongdim

MODULES = [
    importlib.import_module(f"strongdim.{info.name}")
    for info in pkgutil.iter_modules(strongdim.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(strongdim.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"strongdim.{node.module}").__all__
        stray = [alias.name for alias in node.names if alias.name not in exported]
        assert not stray, f"strongdim.{node.module} does not export {stray}"
