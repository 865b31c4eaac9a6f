"""WAL-shipping replication for the sharded serving tier.

:class:`Replica` is a shard's follower: it bootstraps from the shard's
durability directory (checkpoint + WAL tail), then applies each frame
the shard's writer pushes it as the frame is logged, serving
prefix-consistent reads at a bounded, observable staleness and handing
over a caught-up index on :meth:`~Replica.promote` when the primary
dies.

The serving tier (``repro.serve``) hosts each replica in a worker
process beside its primary's (the process backend only: a replica in
the primary's process would fail with it), pushes it the frames of
every logged write, and routes reads to it by
:class:`~repro.serve.options.ReadOptions` policy; this package itself
depends only on ``core`` + ``durability``.
"""

from repro.core.errors import (ReplicaStaleError, ReplicaUnavailableError,
                               ReplicationError)

from .replica import REPLICA_READ_METHODS, Replica

__all__ = [
    "Replica",
    "REPLICA_READ_METHODS",
    "ReplicaStaleError",
    "ReplicaUnavailableError",
    "ReplicationError",
]
