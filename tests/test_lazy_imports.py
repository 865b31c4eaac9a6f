"""The package's public names load lazily (PEP 562), so a shard worker
process imports only the modules it runs."""

import importlib
import os
import subprocess
import sys

import pytest

import repro
import repro.ext
import repro.serve

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")

#: Modules a shard worker never runs.
NOT_IN_WORKER = ("repro.serve.sharded", "repro.serve.ingress",
                 "repro.baselines", "repro.analysis", "repro.ext",
                 "asyncio")


def test_worker_import_leaves_the_rest_unloaded():
    code = ("import sys, repro.serve.worker; "
            f"print([m for m in {NOT_IN_WORKER!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


#: Extensions the serving tier never runs: it locks with
#: ``repro.ext.concurrent`` and checkpoints through
#: ``repro.ext.persistence`` only.
NOT_IN_SERVING = ("repro.ext.paged", "repro.ext.secondary",
                  "repro.ext.duplicates", "repro.ext.adaptive_pma")


@pytest.mark.parametrize("module", ["repro.serve.sharded",
                                    "repro.replication.replica"])
def test_serving_import_leaves_unused_extensions_unloaded(module):
    code = (f"import sys, {module}, repro.ext.persistence; "
            f"print([m for m in {NOT_IN_SERVING!r} if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("package, sources", [
    (repro, ["repro.core", "repro.baselines", "repro.analysis",
             "repro.serve"]),
    (repro.serve, ["repro.serve.backend", "repro.serve.ingress",
                   "repro.serve.options", "repro.serve.router",
                   "repro.serve.sharded", "repro.serve.worker"]),
    (repro.ext, ["repro.ext.adaptive_pma", "repro.ext.concurrent",
                 "repro.ext.duplicates", "repro.ext.paged",
                 "repro.ext.persistence", "repro.ext.secondary"]),
])
def test_every_export_resolves_to_its_definition(package, sources):
    modules = [importlib.import_module(name) for name in sources]
    listing = dir(package)
    for name in package.__all__:
        defined = [m for m in modules if hasattr(m, name)]
        assert defined, f"{name} is defined in none of {sources}"
        assert getattr(package, name) is getattr(defined[0], name)
        assert name in listing


@pytest.mark.parametrize("package", [repro, repro.serve, repro.ext])
def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


@pytest.mark.parametrize("package", ["repro", "repro.serve", "repro.ext"])
def test_star_import(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(importlib.import_module(package).__all__) <= set(namespace)
