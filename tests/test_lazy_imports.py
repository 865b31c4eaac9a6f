"""The package's public names load lazily (PEP 562), so a shard worker
process imports only the modules it runs."""

import importlib
import os
import subprocess
import sys

import numpy as np
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


def test_forkserver_preload_starts_no_thread():
    """Workers fork from a server that imported ``_PRELOAD``; a thread
    started by those imports could hold a lock at the fork."""
    code = ("import importlib, threading; "
            "from repro.serve.worker import _PRELOAD; "
            "[importlib.import_module(m) for m in _PRELOAD]; "
            "print(threading.active_count())")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "1"


#: Runs a primary's load, reads, writes and checkpoint, then a replica's
#: bootstrap, read and promotion, through the worker's own RPC loop (on
#: a thread, fed over a pipe), and prints the ``repro`` modules that
#: were not already loaded by importing the forkserver's preload.
_WORKER_RUN = """
import importlib, os, sys, threading
from multiprocessing import Pipe
from repro.serve.worker import _PRELOAD, _worker_main
for name in _PRELOAD:
    importlib.import_module(name)
preloaded = set(sys.modules)
import numpy as np
from repro.core.config import AlexConfig
from repro.core.policy import HeuristicPolicy
from repro.core.shm import ShardStorageView
replica_root, checkpoint, backend = sys.argv[1:4]
config = AlexConfig(kernel_backend=backend)

def drive(root, requests):
    parent, child = Pipe()
    worker = threading.Thread(target=_worker_main, args=(
        child, dict(os.environ), config, HeuristicPolicy(), root))
    worker.start()
    for req_id, body in enumerate(requests):
        parent.send((req_id, None) + body)
        _, status, value = parent.recv()
        assert status == "ok", value
    worker.join()

keys = np.arange(2000.0)
view = ShardStorageView.pack(keys, keys.tolist())
view.close()
try:
    drive(None, [("load", view, None),
                 ("call", "get_many", (keys[:64],)),
                 ("call", "insert_many", (keys[:8] + 0.5, None)),
                 ("call", "persist_to", (checkpoint,)),
                 ("call", "obs_snapshot", ()),
                 ("call", "trace_drain", ()),
                 ("close",)])
finally:
    view.unlink()
drive(replica_root, [("rstatus",), ("rread", "get", (3.0,), 0, None),
                     ("promote",), ("call", "num_keys", ()), ("close",)])
print(sorted(m for m in set(sys.modules) - preloaded
             if m == "repro" or m.startswith("repro.")))
"""


@pytest.mark.parametrize("backend", ["numpy", "cffi"])
def test_worker_runs_within_the_preload(tmp_path, backend):
    """A primary's load plus checkpoint and a replica's bootstrap import
    no ``repro`` module the forkserver did not preload, so a lazy import
    added to the worker path cannot quietly bring back per-worker import
    cost."""
    from repro.core.kernels import available_backends
    from repro.durability import DurableAlexIndex
    if backend not in available_backends():
        pytest.skip(f"{backend} kernels unavailable")
    root = str(tmp_path / "dur")
    durable = DurableAlexIndex.bulk_load(np.arange(500.0), root=root,
                                         fsync="off")
    durable.insert_many(np.arange(1000.0, 1010.0))
    durable.close()
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _WORKER_RUN, root,
         str(tmp_path / "checkpoint.npz"), backend],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip().splitlines()[-1] == "[]"
