"""Every exported name resolves, the package imports only exported names,
and the test oracles import none of the package's distance routes."""

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


RUNTIME_DISTANCES = {"all_pairs_distances", "DistanceMatrix", "strong_resolving_graph",
                     "strong_product_distances", "_grow"}


def test_oracles_read_no_runtime_distances():
    # the oracles referee the package's ball pass, so they may not read it:
    # no imported name, attribute or bare name of theirs is one of its routes
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert not used & RUNTIME_DISTANCES
