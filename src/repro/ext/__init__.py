"""Extensions implementing the paper's Section 7 future-work directions:

* concurrency control's reader/writer lock (:mod:`repro.ext.concurrent`)
* duplicate keys / multimaps (:mod:`repro.ext.duplicates`)
* secondary indexes over a heap table (:mod:`repro.ext.secondary`)
* secondary-storage paging simulation (:mod:`repro.ext.paged`)
* the adaptive PMA for skewed inserts (:mod:`repro.ext.adaptive_pma`)
* index persistence (:mod:`repro.ext.persistence`)
"""

from repro import _lazy_exports

#: Every public name and the module that defines it, imported on first
#: access (PEP 562): the serving tier locks with ``ReadWriteLock`` and its
#: workers checkpoint through ``repro.ext.persistence`` without loading
#: the paging, secondary-index, multimap or adaptive-PMA extensions.
_EXPORTS = {
    "AdaptivePMANode": ".adaptive_pma",
    "AlexMultimap": ".duplicates",
    "BufferPool": ".paged",
    "HeapTable": ".secondary",
    "IndexedTable": ".secondary",
    "PagedAlexIndex": ".paged",
    "PagedBPlusTree": ".paged",
    "PrimaryIndex": ".secondary",
    "ReadWriteLock": ".concurrent",
    "SecondaryIndex": ".secondary",
    "load_index": ".persistence",
    "save_index": ".persistence",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
