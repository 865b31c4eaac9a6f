"""Process-backend workers fork from one preloaded server, started with
whatever environment the parent had then.  The server must really have
imported the preload, also when it is started again after a death, and
each worker must nevertheless follow its parent's environment *at
launch*: the observability switch and registry are re-derived in every
worker.  (That worker spans carry the worker's own pid is a tracing case,
in ``test_tracing.py``.)"""

import os
import signal
from multiprocessing import forkserver

import numpy as np
import pytest

from repro import obs
from repro.serve import ShardedAlexIndex

KEYS = np.arange(4000, dtype=np.float64)


def _worker_snapshots(monkeypatch, setting: str) -> list:
    """The workers' registry snapshots of a 2-shard process service
    started under ``REPRO_OBS=setting`` and given some reads."""
    monkeypatch.setenv(obs.ENV_VAR, setting)
    service = ShardedAlexIndex.bulk_load(KEYS, num_shards=2,
                                         backend="process")
    try:
        service.lookup_many(KEYS[::7])
        return service.backend.obs_snapshots()
    finally:
        service.close()


@pytest.mark.parametrize("first, second", [("on", "off"), ("off", "on")])
def test_workers_follow_the_parent_environment(monkeypatch, first,
                                               second):
    """Whichever way the switch flips between two services in one
    process, the second service's workers obey the new setting."""
    for setting in (first, second):
        snapshots = _worker_snapshots(monkeypatch, setting)
        assert len(snapshots) == 2
        for snap in snapshots:
            if setting == "on":
                assert snap["enabled"] is True
                assert "shard.op.lookup_many" in snap["histograms"]
            else:
                assert snap["enabled"] is False
                assert not (snap["counters"] or snap["gauges"]
                            or snap["histograms"] or snap["events"])


def _server_after_a_launch() -> int:
    """Start and close a one-shard process service; the pid of the
    forkserver its worker forked from."""
    ShardedAlexIndex.bulk_load(KEYS, num_shards=1,
                               backend="process").close()
    pid = forkserver._forkserver._forkserver_pid
    assert pid is not None
    return pid


def _imported_numpy(pid: int) -> bool:
    """Whether numpy's core extension is mapped into process ``pid``:
    nothing but the preload imports numpy in the server."""
    with open(f"/proc/{pid}/maps") as maps:
        return "_multiarray_umath" in maps.read()


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the server's /proc/<pid>/maps")
def test_the_server_preloads_also_after_a_restart(monkeypatch):
    """The server workers fork from imported the preload.  After it
    dies, the next launch starts one that imports it too — here with no
    ``PYTHONPATH`` at all, as under a test runner that only edits
    ``sys.path``."""
    first = _server_after_a_launch()
    assert _imported_numpy(first)
    os.kill(first, signal.SIGKILL)
    # Wait for the death without reaping: multiprocessing reaps it.
    os.waitid(os.P_PID, first, os.WEXITED | os.WNOWAIT)
    monkeypatch.delenv("PYTHONPATH", raising=False)
    second = _server_after_a_launch()
    assert second != first
    assert _imported_numpy(second)
