"""Persistence: save and load an ALEX index to a single file.

A practical library needs its indexes to survive restarts.  The format is
deliberately simple and inspectable: one uncompressed ``.npz`` archive
(format version 3) holding a handful of whole-index columns:

* ``header`` — JSON: config, version, the tree structure (inner nodes in
  a table, each with its model and child-slot references) and, per leaf,
  its capacity, key count, model and ``[lo, hi)`` slot range in the
  columns below;
* ``keys`` / ``occupied`` — every leaf's slot arrays, concatenated in
  leaf-chain order;
* the occupied slots' payloads, in the same order: ``payload_column``,
  the leaves' own ``int64`` or ``float64`` column, when the index stores
  its payloads typed, else ``payload_pickle``, one pickled list of the
  ``object`` column's values.  Either way the loaded index keeps the
  saved index's payload dtype, and every value comes back with its
  exact Python type.

Checkpoints sit on the set-up and recovery path of the durable service,
so the archive is written uncompressed: zlib cost about ten times the
rest of the save for about a third of the bytes.  Archives of versions 1
and 2 — three compressed members per leaf — still load, so existing
durability directories recover.

Loading rebuilds the exact same tree: same models, same slot layouts, same
leaf chain — so prediction behaviour (and therefore performance) is
preserved bit-for-bit, unlike a rebuild via ``bulk_load`` which would
re-train models.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.alex import AlexIndex
from repro.core.config import AlexConfig
from repro.core.data_node import DataNode, blank_column, concat_columns
from repro.core.errors import PersistenceError
from repro.core.kernels import get_kernels
from repro.core.linear_model import LinearModel
from repro.core.policy import AdaptationPolicy
from repro.core.rmi import InnerNode, link_leaves, make_data_node

#: Identifies our archives among arbitrary ``.npz`` files (stamped into
#: the JSON header alongside the version).
FORMAT_MAGIC = "repro-alex-index"

#: Current on-disk format version.  Version 3 stores whole-index columns
#: uncompressed; versions 1 and 2 stored three compressed members per
#: leaf, and version 2 added the ``format`` magic stamp.  All three load.
FORMAT_VERSION = 3

#: Versions :func:`load_index` knows how to decode.
SUPPORTED_VERSIONS = (1, 2, 3)


def save_index(index: AlexIndex, path: str) -> None:
    """Serialize ``index`` to ``path`` (a ``.npz`` archive)."""
    leaves: List[DataNode] = list(index.leaves())
    leaf_ids = {id(leaf): i for i, leaf in enumerate(leaves)}

    # Inner nodes are stored in a table and referenced by index so that a
    # node reachable through several parent slots (possible after splits)
    # round-trips as one shared object.
    inner_table: List[dict] = []
    inner_ids: dict = {}

    def encode_inner(node: InnerNode) -> int:
        if id(node) in inner_ids:
            return inner_ids[id(node)]
        slots = []
        for child in node.children:
            if isinstance(child, InnerNode):
                slots.append(["inner", encode_inner(child)])
            else:
                slots.append(["leaf", leaf_ids[id(child)]])
        spec = {"model": [node.model.slope, node.model.intercept],
                "slots": slots}
        inner_table.append(spec)
        inner_ids[id(node)] = len(inner_table) - 1
        return inner_ids[id(node)]

    def encode_node(node) -> dict:
        if isinstance(node, InnerNode):
            return {"kind": "inner", "inner": encode_inner(node)}
        return {"kind": "leaf", "leaf": leaf_ids[id(node)]}

    header = {
        "format": FORMAT_MAGIC,
        "version": FORMAT_VERSION,
        "num_keys": len(index),
        "config": dataclasses.asdict(index.config),
        "tree": encode_node(index._root),
        "inners": inner_table,
        "leaves": [],
    }
    lo = 0
    for leaf in leaves:
        header["leaves"].append({
            "capacity": leaf.capacity,
            "num_keys": leaf.num_keys,
            "model": ([leaf.model.slope, leaf.model.intercept]
                      if leaf.model is not None else None),
            "slots": [lo, lo + len(leaf.keys)],
        })
        lo += len(leaf.keys)

    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"),
                                dtype=np.uint8),
        "keys": np.concatenate([leaf.keys for leaf in leaves]),
        "occupied": np.concatenate([leaf.occupied for leaf in leaves]),
    }
    column = concat_columns(leaf.payloads[leaf.occupied] for leaf in leaves)
    if column.dtype.kind != "O":
        arrays["payload_column"] = column
    else:
        arrays["payload_pickle"] = np.frombuffer(
            pickle.dumps(column.tolist()), dtype=np.uint8)
    with open(path, "wb") as f:
        np.savez(f, **arrays)


def _object_column(values: list) -> np.ndarray:
    """A pickled payload list as an ``object`` column (each value, a
    sequence included, one element)."""
    return np.fromiter(values, dtype=object, count=len(values))


def _leaf_slots(archive, header: dict
                ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each leaf's ``(keys, occupied, payloads)`` slot arrays, in leaf
    order: views of the version-3 columns (the payloads scattered into
    one arena at the same slots), or read from the per-leaf members of a
    version-1/2 archive."""
    if header["version"] < 3:
        for i in range(len(header["leaves"])):
            yield (archive[f"keys_{i}"], archive[f"occ_{i}"],
                   _object_column(pickle.loads(
                       bytes(archive[f"payloads_{i}"]))))
        return
    keys, occupied = archive["keys"], archive["occupied"]
    if "payload_column" in archive.files:
        values = archive["payload_column"]
    else:
        values = _object_column(
            pickle.loads(bytes(archive["payload_pickle"])))
    arena = blank_column(len(keys), values.dtype)
    arena[occupied] = values
    for meta in header["leaves"]:
        lo, hi = meta["slots"]
        yield keys[lo:hi], occupied[lo:hi], arena[lo:hi]


def load_index(path: str,
               policy: Optional[AdaptationPolicy] = None) -> AlexIndex:
    """Deserialize an index saved by :func:`save_index`.

    ``policy`` becomes the index's adaptation policy and every leaf's,
    as :meth:`AlexIndex.bulk_load` would set it (``None``: the index
    default).

    Raises :class:`~repro.core.errors.PersistenceError` when ``path`` is
    not one of our archives (missing header), carries an unknown format
    stamp, or was written by an unsupported format version — instead of
    the cryptic ``KeyError`` a foreign ``.npz`` would otherwise produce.
    """
    try:
        archive_ctx = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise PersistenceError(f"{path}: not a readable npz archive: "
                               f"{exc}") from exc
    with archive_ctx as archive:
        if "header" not in getattr(archive, "files", []):
            raise PersistenceError(
                f"{path}: no index header — not a {FORMAT_MAGIC} archive")
        try:
            header = json.loads(bytes(archive["header"]).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise PersistenceError(
                f"{path}: corrupt index header: {exc}") from exc
        # Version-1 archives predate the format stamp; anything newer must
        # carry it.
        stamp = header.get("format", FORMAT_MAGIC)
        if stamp != FORMAT_MAGIC:
            raise PersistenceError(
                f"{path}: format stamp {stamp!r} is not {FORMAT_MAGIC!r}")
        if header.get("version") not in SUPPORTED_VERSIONS:
            raise PersistenceError(
                f"{path}: unsupported index file version "
                f"{header.get('version')!r} (supported: "
                f"{', '.join(map(str, SUPPORTED_VERSIONS))})")
        config = AlexConfig(**header["config"])
        # Not through __init__, whose empty cold-start leaf the loaded
        # tree would replace (as AlexIndex._build does).
        index = AlexIndex.__new__(AlexIndex)
        index._setup(config, policy)
        counters = index.counters
        dtypes = set()
        leaves: List[DataNode] = []
        for meta, (keys, occupied, payloads) in zip(
                header["leaves"], _leaf_slots(archive, header)):
            leaf = make_data_node(config, counters, index.policy)
            leaf.keys, leaf.occupied, leaf.payloads = (keys, occupied,
                                                       payloads)
            dtypes.add(payloads.dtype)
            leaf.capacity = int(meta["capacity"])
            leaf.num_keys = int(meta["num_keys"])
            if meta["model"] is not None:
                leaf.model = LinearModel(*meta["model"])
            leaves.append(leaf)

    inner_cache: dict = {}

    def decode_inner(idx: int) -> InnerNode:
        if idx in inner_cache:
            return inner_cache[idx]
        spec = header["inners"][idx]
        children: list = []
        for kind, payload in spec["slots"]:
            if kind == "leaf":
                children.append(leaves[payload])
            else:
                children.append(decode_inner(payload))
        node = InnerNode(LinearModel(*spec["model"]), children, counters,
                         kernels=get_kernels(config.kernel_backend))
        inner_cache[idx] = node
        return node

    tree_spec = header["tree"]
    if tree_spec["kind"] == "leaf":
        index._root = leaves[tree_spec["leaf"]]
    else:
        index._root = decode_inner(tree_spec["inner"])
    index._num_keys = int(header["num_keys"])
    index._cold_start = False
    index._payload_dtype, = dtypes
    link_leaves(leaves)
    return index
