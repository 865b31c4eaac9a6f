"""The consistency-aware read API: ``ReadOptions`` and ``WriteToken``.

Eight PRs of growth left the facade with ~15 read entry points
(``lookup``/``get``/``contains``, their ``_many`` batches, range scans,
the async ingress mirrors…) and no place for a caller to say *which*
consistency a read needs.  Replication forces the question: once a shard
has a replica applying the shipped WAL a few milliseconds behind its
primary, "read" stops being one thing.  This module is the single answer
threaded uniformly through :class:`~repro.serve.ShardedAlexIndex`,
:class:`~repro.serve.AsyncIngress`, and ``IngressRunner``:

``ReadOptions(consistency, max_staleness_s, token)``
    * ``primary`` (the default, and the behaviour of every pre-existing
      positional signature): serve from the primary worker under the
      shard lock.  Always current, pays the primary's queue.
    * ``replica_ok``: serve from the shard's replica when one is attached
      and fresh enough (``max_staleness_s`` bounds the observable lag;
      ``None`` accepts any replica that is alive and applying).  Falls
      back to the primary transparently when the bound cannot be met.
    * ``read_your_writes``: like ``replica_ok`` but anchored to a
      :class:`WriteToken` — the replica must have applied at least the
      LSNs the token records, else the read falls back to the primary.

``WriteToken``
    Every acked write returns one: a per-shard LSN vector keyed by the
    shard's **durability generation** (the durability directory name,
    e.g. ``shard-00000003``).  Generations are stable across the life of
    a shard and *replaced* by SMOs (split/merge rewrite the topology into
    fresh directories whose generation-zero checkpoint already contains
    every pre-SMO write), so a token survives shard splits for free: a
    generation the replica does not know simply demands LSN 0, which the
    fresh checkpoint satisfies.  Tokens from concurrent writers merge
    with :meth:`WriteToken.merge` (pointwise max).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

#: Consistency levels, in decreasing order of freshness guarantee.
PRIMARY = "primary"
REPLICA_OK = "replica_ok"
READ_YOUR_WRITES = "read_your_writes"

CONSISTENCY_LEVELS = (PRIMARY, REPLICA_OK, READ_YOUR_WRITES)


@dataclass(frozen=True)
class WriteToken:
    """Per-shard durability watermark returned by every acked write.

    ``lsns`` maps a shard's durability generation (its durability
    directory name) to the highest WAL LSN this token's writes reached
    there.  An empty token (``WriteToken.empty()``, also what writes on a
    non-durable service return) demands nothing and is satisfied by any
    replica.
    """

    lsns: Mapping[str, int] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "WriteToken":
        return cls({})

    def merge(self, other: Optional["WriteToken"]) -> "WriteToken":
        """Pointwise-max combination: the merged token is satisfied only
        by a replica that satisfies both inputs."""
        if not other or not other.lsns:
            return self
        if not self.lsns:
            return other
        merged = dict(self.lsns)
        for generation, lsn in other.lsns.items():
            if lsn > merged.get(generation, 0):
                merged[generation] = lsn
        return WriteToken(merged)

    def lsn_for(self, generation: str) -> int:
        """The LSN this token demands of ``generation`` (0 when the
        generation is unknown — e.g. it was created by a later SMO whose
        generation-zero checkpoint already contains these writes)."""
        return self.lsns.get(generation, 0)

    def __bool__(self) -> bool:
        return bool(self.lsns)


@dataclass(frozen=True)
class ReadOptions:
    """How a read may be served.  Frozen and hashable-by-construction so
    one instance can be shared across a whole batch/stream of requests.

    ``max_staleness_s`` bounds the replica's *observable* staleness (time
    since the newest writer send stamp it has dequeued; a replica whose
    staleness reaches the bound falls back, so ``0`` always does);
    ``None`` means any live replica qualifies.  ``token`` only matters for
    ``read_your_writes``; ``None`` there means "my writes so far are
    whatever the empty token records", i.e. nothing — equivalent to
    ``replica_ok``.
    """

    consistency: str = PRIMARY
    max_staleness_s: Optional[float] = None
    token: Optional[WriteToken] = None

    def __post_init__(self):
        if self.consistency not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"unknown consistency {self.consistency!r}; expected one "
                f"of {CONSISTENCY_LEVELS}")
        if self.max_staleness_s is not None and self.max_staleness_s < 0:
            raise ValueError("max_staleness_s must be >= 0")
        if self.token is not None and not isinstance(self.token, WriteToken):
            raise TypeError("token must be a WriteToken (as returned by a "
                            "write) or None")

    # -- constructors matching the three policies ----------------------
    @classmethod
    def primary(cls) -> "ReadOptions":
        """Always read the primary (the pre-replication behaviour)."""
        return cls(PRIMARY)

    @classmethod
    def replica_ok(cls, max_staleness_s: Optional[float] = None
                   ) -> "ReadOptions":
        """Accept a replica within ``max_staleness_s`` of the primary."""
        return cls(REPLICA_OK, max_staleness_s=max_staleness_s)

    @classmethod
    def read_your_writes(cls, token: Optional[WriteToken],
                         max_staleness_s: Optional[float] = None
                         ) -> "ReadOptions":
        """Accept a replica only once it has applied ``token``."""
        return cls(READ_YOUR_WRITES, max_staleness_s=max_staleness_s,
                   token=token)

    @property
    def wants_replica(self) -> bool:
        return self.consistency != PRIMARY


#: The default for every read entry point: exactly the old behaviour.
DEFAULT_READ_OPTIONS = ReadOptions()


def resolve_read_options(options: Union[ReadOptions, str, None]
                         ) -> ReadOptions:
    """Normalize the ``options=`` argument of a read entry point:
    ``None`` → primary, a bare consistency string → that level with no
    further bounds, a ``ReadOptions`` → itself."""
    if options is None:
        return DEFAULT_READ_OPTIONS
    if isinstance(options, str):
        return ReadOptions(options)
    if isinstance(options, ReadOptions):
        return options
    raise TypeError(f"options must be ReadOptions, a consistency string, "
                    f"or None — got {type(options).__name__}")
