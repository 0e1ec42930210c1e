"""Every exported name resolves, the package imports only exported names,
the verifier's names load on first use, and the test oracles import none of
the package's distance routes."""

import ast
import importlib
import pkgutil
import subprocess
import sys
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


RUNTIME_DISTANCES = {"all_pairs_distances", "DistanceMatrix", "strong_resolving_graph", "_grow"}


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


VERIFY_NAMES = ("ClaimReport", "Corpus", "CorpusSpec", "claim_ids", "replay_instance",
                "run_suite", "verify_claim")


@pytest.mark.parametrize("name", VERIFY_NAMES)
def test_lazy_verify_names_are_verify_exports(name):
    # the package resolves these on first use; each is verify's own object
    # and one it exports, as test_package_imports_only_exported_names
    # requires of the eager imports
    verify = importlib.import_module("strongdim.verify")
    assert getattr(strongdim, name) is getattr(verify, name)
    assert name in verify.__all__


def test_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'run_everything'"):
        strongdim.run_everything


def test_bare_package_import_leaves_verify_unloaded():
    snippet = ("import sys; sys.path.insert(0, sys.argv[1]); import strongdim; "
               "from strongdim import Graph; print('strongdim.verify' in sys.modules)")
    src = str(Path(strongdim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", snippet, src],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
