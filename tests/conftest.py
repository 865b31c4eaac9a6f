"""Shared fixtures for the test suite."""

import multiprocessing
import os
import threading

import pytest

from repro.core.errors import KeyNotFoundError


def node_payload(node, key: float):
    """The payload a data node stores for ``key``; raises if it is absent."""
    pos = node.find_key(key)
    if pos < 0:
        raise KeyNotFoundError(key)
    return node.payloads.item(pos)


def prediction_error(node, key: float) -> int:
    """Distance between the model's predicted slot and the key's actual
    slot; raises if the key is absent."""
    pos = node.find_key(key)
    if pos < 0:
        raise KeyNotFoundError(key)
    return abs(node.predict_pos(key) - pos)


#: Process names the process backend gives its shard and replica workers.
WORKER_NAMES = ("alex-shard-worker", "alex-replica-worker")
SHM_DIR = "/dev/shm"


def live_workers() -> list:
    """Shard and replica worker children of this process still alive."""
    return [p.name for p in multiprocessing.active_children()
            if p.name in WORKER_NAMES]


def shm_segments() -> set:
    """The named shared-memory segments that exist right now."""
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return set()


@pytest.fixture
def leak_guard():
    """Fail the test if it leaves a shard or replica worker process alive
    or a shared-memory segment it created behind."""
    before = shm_segments()
    yield
    workers = live_workers()
    segments = sorted(shm_segments() - before)
    if workers or segments:
        pytest.fail(f"leaked worker processes {workers} and shared-memory "
                    f"segments {segments}")


@pytest.fixture
def wire():
    """``wire(message)`` sends ``message`` through the process backend's
    frame codec over a real socket pair and returns what the far end
    decodes.  The send runs on a thread, since a large frame's send
    returns only once the far end has read it."""
    from repro.serve.worker import _decode, _encode, _send

    sender, receiver = multiprocessing.Pipe()

    def round_trip(message):
        thread = threading.Thread(target=_send,
                                  args=(sender, _encode(message)))
        thread.start()
        try:
            assert receiver.poll(30), "no frame arrived"
            return _decode(receiver)
        finally:
            thread.join(timeout=30)
            assert not thread.is_alive()

    yield round_trip
    sender.close()
    receiver.close()
