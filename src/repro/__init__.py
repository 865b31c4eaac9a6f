"""repro: a pure-Python reproduction of ALEX, the updatable adaptive
learned index (Ding et al., SIGMOD 2020).

Quickstart::

    import numpy as np
    from repro import AlexIndex, ga_armi

    keys = np.random.default_rng(0).uniform(0, 1e6, 10_000)
    index = AlexIndex.bulk_load(keys, config=ga_armi())
    index.insert(123.456, "payload")
    assert index.lookup(123.456) == "payload"
    neighbours = index.range_scan(123.0, limit=10)

See README.md for the system inventory (its Layout section) and the
paper-figure reproductions (its Benchmarks section).
"""

import importlib
import sys

__version__ = "1.1.0"


def _lazy_exports(package: str, exports: dict):
    """PEP 562 ``__getattr__`` and ``__dir__`` for ``package``: each name
    in ``exports`` (public name -> defining module, relative to
    ``package``) is imported on first access and then bound in the
    package, so later lookups skip the hook."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name], package),
                        name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__


#: Every public name and the subpackage that defines it.  Each one is
#: imported on first access (PEP 562), so a process that needs only part
#: of the package — a shard worker runs ``repro.serve.worker`` — never
#: loads the baselines, the analysis models or the serving front end.
_EXPORTS = {
    "ADAPTIVE_RMI": ".core",
    "ALL_VARIANTS": ".core",
    "AdaptationPolicy": ".core",
    "AlexConfig": ".core",
    "AlexIndex": ".core",
    "BPlusTree": ".baselines",
    "CostModel": ".analysis",
    "CostModelPolicy": ".core",
    "Counters": ".core",
    "DEFAULT_COST_MODEL": ".analysis",
    "DuplicateKeyError": ".core",
    "GAPPED_ARRAY": ".core",
    "HeuristicPolicy": ".core",
    "KeyNotFoundError": ".core",
    "LearnedIndex": ".baselines",
    "LinearModel": ".core",
    "PACKED_MEMORY_ARRAY": ".core",
    "STATIC_RMI": ".core",
    "ShardRouter": ".serve",
    "ShardedAlexIndex": ".serve",
    "ga_armi": ".core",
    "ga_srmi": ".core",
    "pma_armi": ".core",
    "pma_srmi": ".core",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
