"""Every import at the top of ``examples/*.py`` and ``benchmarks/*.py``
resolves.

The scripts are not run here (some take minutes); their top-level
imports are read from the AST and performed one by one, so deleting or
renaming a name an example or a benchmark imports fails this test."""

import ast
import glob
import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(ROOT, "benchmarks")
EXAMPLES = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
SCRIPTS = EXAMPLES + sorted(glob.glob(os.path.join(BENCHMARKS, "*.py")))


def top_level_imports(path):
    """``(module, name)`` for each top-level import in ``path``; ``name``
    is ``None`` for a plain ``import module``."""
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import in {path}"
            for alias in node.names:
                yield node.module, alias.name


def test_examples_are_found():
    assert EXAMPLES
    assert len(SCRIPTS) > len(EXAMPLES)


@pytest.mark.parametrize("path", SCRIPTS, ids=os.path.basename)
def test_top_level_imports_resolve(path, monkeypatch):
    # The benchmarks import their shared helpers as ``_common``.
    monkeypatch.syspath_prepend(BENCHMARKS)
    for module_name, name in top_level_imports(path):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        # ``from package import submodule`` names a module, not an attribute.
        importlib.import_module(f"{module_name}.{name}")
