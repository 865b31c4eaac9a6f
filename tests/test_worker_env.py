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
from repro.serve import IngressRunner, ShardedAlexIndex

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


def _maps(pid: int) -> str:
    """The files mapped into process ``pid``, extension modules among
    them."""
    with open(f"/proc/{pid}/maps") as maps:
        return maps.read()


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the server's /proc/<pid>/maps")
def test_the_server_preloads_also_after_a_restart(monkeypatch):
    """The server workers fork from imported the preload.  After it
    dies, the next launch starts one that imports it too — here with no
    ``PYTHONPATH`` at all, as under a test runner that only edits
    ``sys.path``."""
    # Nothing but the preload imports numpy in the server.
    first = _server_after_a_launch()
    assert "_multiarray_umath" in _maps(first)
    os.kill(first, signal.SIGKILL)
    # Wait for the death without reaping: multiprocessing reaps it.
    os.waitid(os.P_PID, first, os.WEXITED | os.WNOWAIT)
    monkeypatch.delenv("PYTHONPATH", raising=False)
    second = _server_after_a_launch()
    assert second != first
    assert "_multiarray_umath" in _maps(second)


#: Extensions only the asyncio ingress loads: a worker that maps either
#: imported the front end it never runs.
INGRESS_ONLY = ("_asyncio", "_ssl")


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the workers' /proc/<pid>/maps")
def test_workers_import_nothing_at_run_time(tmp_path):
    """Coalesced reads carry the ingress's miss sentinel to the workers
    and back; unpickling it must not import the ingress (and with it
    asyncio and ssl) into any primary or replica worker."""
    service = ShardedAlexIndex.bulk_load(
        KEYS, num_shards=2, backend="process",
        durability_dir=str(tmp_path / "dur"), fsync="off", replicate=True)
    try:
        with IngressRunner(service, window_s=0.001) as runner:
            probe = np.concatenate([KEYS[::97], [-1.0, 1e9]])
            assert runner.get_many(probe)[-1] is None
            assert runner.get_many(probe, options="replica_ok")[-1] is None
            runner.insert(4000.5, "x")
            runner.delete(4000.5)
        assert len(service.range_scan(1990.0, 20)) == 20
        assert service.get(-1.0, "absent") == "absent"
        assert service.contains_many(KEYS[:4]).all()
        pids = service.backend.worker_pids() + service.backend.replica_pids()
        assert None not in pids and len(pids) == 4
        loaded = {pid: [name for name in INGRESS_ONLY if name in _maps(pid)]
                  for pid in pids}
        assert loaded == {pid: [] for pid in pids}
    finally:
        service.close()
