"""Concurrency control for ALEX (paper Section 7, "Concurrency Control").

The paper sketches the locking protocol a DBMS integration needs: shared
locks on leaf data nodes for lookups, exclusive locks for inserts, and
lock-coupling while traversing an adaptive RMI whose structure can change
under node splitting.  This module provides the lock itself,
:class:`ReadWriteLock`, a writer-preferring reader/writer lock.

The thread-safe index is :class:`repro.serve.ShardedAlexIndex`: it holds
one such lock per shard plus a structure lock, so a one-shard
thread-backend instance is the coarse end of the paper's design space
(every read shares one lock, every write takes it exclusively).
Per-leaf lock-coupling (the fine end) changes the core node code and is
left as the paper leaves it: future work.
"""

from __future__ import annotations

import threading


class ReadWriteLock:
    """A writer-preferring reader/writer lock.

    Multiple readers may hold the lock simultaneously; writers are
    exclusive.  Arriving writers block new readers so write-heavy phases
    cannot be starved by a stream of readers.
    """

    def __init__(self):
        self._condition = threading.Condition()
        self._active_readers = 0
        self._active_writer = False
        self._waiting_writers = 0

    def acquire_read(self) -> None:
        """Block until the lock can be shared."""
        with self._condition:
            while self._active_writer or self._waiting_writers:
                self._condition.wait()
            self._active_readers += 1

    def release_read(self) -> None:
        """Release one shared hold."""
        with self._condition:
            self._active_readers -= 1
            if self._active_readers == 0:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        """Block until the lock is held exclusively."""
        with self._condition:
            self._waiting_writers += 1
            try:
                while self._active_writer or self._active_readers:
                    self._condition.wait()
            finally:
                self._waiting_writers -= 1
            self._active_writer = True

    def release_write(self) -> None:
        """Release the exclusive hold."""
        with self._condition:
            self._active_writer = False
            self._condition.notify_all()

    class _ReadGuard:
        def __init__(self, lock: "ReadWriteLock"):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire_read()
            return self

        def __exit__(self, *exc):
            self._lock.release_read()
            return False

    class _WriteGuard:
        def __init__(self, lock: "ReadWriteLock"):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire_write()
            return self

        def __exit__(self, *exc):
            self._lock.release_write()
            return False

    def read(self) -> "_ReadGuard":
        """Context manager acquiring the lock shared."""
        return self._ReadGuard(self)

    def write(self) -> "_WriteGuard":
        """Context manager acquiring the lock exclusive."""
        return self._WriteGuard(self)

