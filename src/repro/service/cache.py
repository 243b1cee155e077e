"""Content-addressed result cache for the portfolio service.

Results are keyed on the matrix's canonical content hash — the row-mask
tuple plus the column count, exactly the fields :class:`BinaryMatrix`
hashes on — so any reconstruction of an equal matrix hits the same
entry.  :class:`ResultCache` is a bounded in-memory LRU over an
optional disk tier, :class:`repro.server.shards.ShardedDiskTier`:
hash-prefix shard files with ``fcntl`` locking and merge-on-write, safe
for concurrent runners sharing one cache directory
(``ResultCache.sharded``).  Every shard write is an atomic tempfile +
``os.replace``, so a crash mid-flush can never leave a torn shard.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Set, Union

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import SolverError
from repro.service.portfolio import (
    PortfolioResult,
    result_from_dict,
    result_to_dict,
)

if TYPE_CHECKING:
    from repro.server.shards import ShardedDiskTier


def matrix_key(matrix: BinaryMatrix, context: str = "") -> str:
    """Canonical content hash of a matrix (hex SHA-256).

    Equal matrices — including ones rebuilt from strings, numpy arrays,
    or cells — produce equal keys; the column count is included so a
    matrix and its zero-padded widening never collide.  ``context``
    folds the solving configuration (members, seed, budgets) into the
    key so results computed under different configurations never shadow
    each other — see :func:`repro.service.batch.solve_context`.
    """
    digest = hashlib.sha256()
    digest.update(f"{matrix.num_cols}:".encode("ascii"))
    for row in matrix.row_masks:
        digest.update(f"{row:x},".encode("ascii"))
    if context:
        digest.update(b"|")
        digest.update(context.encode("utf-8"))
    return digest.hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    """Hits served by the storage tier (subset of ``hits``)."""
    quarantines: int = 0
    """Corrupt disk files moved aside (see ``server/shards.py``)."""
    store_evictions: int = 0
    """Entries the disk tier's GC removed (TTL expiry or cap pressure)."""
    gc_runs: int = 0
    """GC/compaction passes this tier has run (see ``server/store_gc.py``)."""
    integrity_failures: int = 0
    """Entries whose stored content hash no longer matched on read."""
    bytes_used: int = 0
    """Approximate payload bytes on disk (index-backed; sharded tier only)."""

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "quarantines": self.quarantines,
            "store_evictions": self.store_evictions,
            "gc_runs": self.gc_runs,
            "integrity_failures": self.integrity_failures,
            "bytes_used": self.bytes_used,
        }


class ResultCache:
    """LRU cache of :class:`PortfolioResult` keyed by matrix content.

    Entries are stored as JSON-able dicts, so a hit reconstructs a
    fresh result object (flagged ``from_cache=True``) and the disk tier
    round-trips losslessly.  ``capacity`` bounds the in-memory tier;
    eviction drops the least recently used entry (evicted dirty entries
    are retained off to the side until the next flush, so a small
    memory tier cannot lose fresh results).  The disk tier is read
    through per key on a memory miss, never loaded eagerly.
    """

    def __init__(
        self,
        capacity: int = 1024,
        *,
        storage: Optional["ShardedDiskTier"] = None,
    ) -> None:
        if capacity < 1:
            raise SolverError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.storage = storage
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._dirty: Set[str] = set()
        self._evicted_dirty: Dict[str, Dict[str, Any]] = {}
        self.refresh_stats()

    def refresh_stats(self) -> CacheStats:
        """Stats with the disk tier's lifecycle counters folded in
        (metrics endpoints call this rather than reading ``stats``
        raw)."""
        storage = self.storage
        if storage is not None:
            self.stats.quarantines = storage.quarantined
            self.stats.store_evictions = storage.store_evictions
            self.stats.gc_runs = storage.gc_runs
            self.stats.integrity_failures = storage.integrity_failures
            self.stats.bytes_used = storage.bytes_used()
        return self.stats

    @classmethod
    def sharded(
        cls,
        root: Union[str, Path],
        *,
        capacity: int = 1024,
        prefix_len: int = 2,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
        ttl_seconds: Optional[float] = None,
    ) -> "ResultCache":
        """A cache over the concurrent-safe sharded disk tier.

        ``root`` may name a legacy single-file JSON cache, which is
        migrated into a shard directory on first open (a torn one is
        quarantined and the store starts cold).  Any of the cap
        arguments makes the store *bounded*: the limits persist in the
        store directory, and the write path triggers the journaled GC
        (``repro.server.store_gc``) whenever they are exceeded.  With
        none given, limits previously persisted for the store apply.
        """
        from repro.server.shards import ShardedDiskTier, StoreLimits

        limits = None
        if (
            max_bytes is not None
            or max_entries is not None
            or ttl_seconds is not None
        ):
            limits = StoreLimits(
                max_bytes=max_bytes,
                max_entries=max_entries,
                ttl_seconds=ttl_seconds,
            )
        return cls(
            capacity,
            storage=ShardedDiskTier(
                root, prefix_len=prefix_len, limits=limits
            ),
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, matrix: BinaryMatrix) -> bool:
        return matrix_key(matrix) in self._entries

    def get(
        self, matrix: BinaryMatrix, context: str = ""
    ) -> Optional[PortfolioResult]:
        return self.get_by_key(matrix_key(matrix, context))

    def get_by_key(self, key: str) -> Optional[PortfolioResult]:
        payload = self._entries.get(key)
        if payload is None and self.storage is not None:
            payload = self._evicted_dirty.get(key)
            if payload is None:
                payload = self.storage.get(key)
                self.refresh_stats()
            if payload is not None:
                self.stats.disk_hits += 1
                self._insert(key, payload, dirty=False)
        if payload is None:
            self.stats.misses += 1
            return None
        if key in self._entries:
            self._entries.move_to_end(key)
        self.stats.hits += 1
        return result_from_dict(payload, from_cache=True)

    def put(
        self,
        matrix: BinaryMatrix,
        result: PortfolioResult,
        context: str = "",
    ) -> str:
        """Insert (or refresh) the entry for ``matrix``; returns its key."""
        key = matrix_key(matrix, context)
        self._insert(key, result_to_dict(result), dirty=True)
        return key

    def _insert(
        self, key: str, payload: Dict[str, Any], *, dirty: bool
    ) -> None:
        self._entries[key] = payload
        self._entries.move_to_end(key)
        if dirty:
            self._dirty.add(key)
            self._evicted_dirty.pop(key, None)
        self._enforce_capacity()

    def _enforce_capacity(self) -> None:
        while len(self._entries) > self.capacity:
            evicted_key, evicted_payload = self._entries.popitem(last=False)
            if evicted_key in self._dirty:
                self._dirty.discard(evicted_key)
                self._evicted_dirty[evicted_key] = evicted_payload
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._dirty.clear()
        self._evicted_dirty.clear()

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write the entries put since the last flush to the disk tier
        (no-op without one)."""
        if self.storage is None:
            return
        fresh = dict(self._evicted_dirty)
        fresh.update((key, self._entries[key]) for key in self._dirty)
        self.storage.store(fresh)
        self._dirty.clear()
        self._evicted_dirty.clear()
        self.refresh_stats()

    def __repr__(self) -> str:
        return (
            f"ResultCache({len(self._entries)}/{self.capacity} entries, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
