"""The sharded result store: 256-way keyspace, entry files, hot tier.

Layout::

    .repro-cache/
        00/
            00a3...f1.pkl       # one self-validating entry per key
        01/
        ...
        ff/

The entry files are the store's only on-disk state.  Each one carries a
magic header and a SHA-256 digest of its pickled payload, and is
published atomically (temp file, then ``os.replace``), so concurrent
writers never expose a torn file.

Two tiers answer a ``get``:

1. **hot tier** — an in-process LRU of recently *read* values; repeat
   lookups skip the filesystem and unpickling entirely.  Values are
   returned by reference, so treat cached results as immutable (every
   caller in this repository does).
2. **sharded file** — one ``open``/``read`` at a path derived from the
   key prefix; the magic header and payload digest reject torn or
   corrupt files, which are dropped and recomputed.

:meth:`ResultCache.stats`, :meth:`~ResultCache.keys`,
:meth:`~ResultCache.clear` and the size-capped LRU eviction
(``REPRO_CACHE_MAX_BYTES``) all read one scan of the entry files, so
they always agree with what is on disk, whichever process wrote it.
Under a cap, LRU recency is the file's mtime: ``put`` and disk reads
stamp it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.cache.keys import default_cache_dir, stable_key

__all__ = ["ResultCache", "CacheStats", "SHARDS", "cache_max_bytes"]

_active_metrics = None


def _metrics():
    """The ambient metrics registry, or None (lazy import: telemetry
    pulls in ``repro.sim``, which imports this package)."""
    global _active_metrics
    if _active_metrics is None:
        from repro.telemetry.session import active_metrics
        _active_metrics = active_metrics
    return _active_metrics()

#: File header: identifies cache entries and their format revision.
_MAGIC = b"RPROCACHE1\n"

#: Shard fan-out: first ``_SHARD_WIDTH`` hex chars of the key.
_SHARD_WIDTH = 2
SHARDS = 16 ** _SHARD_WIDTH

#: Hot-tier bounds (entries / bytes).
_HOT_ENTRIES = 512
_HOT_BYTES = 128 * 1024 * 1024


def cache_max_bytes() -> Optional[int]:
    """The on-disk size cap from ``REPRO_CACHE_MAX_BYTES`` (None = off)."""
    from repro.core.knobs import env_value  # lazy: core imports cache
    cap = env_value("REPRO_CACHE_MAX_BYTES")
    if cap is None:
        return None
    return cap if cap > 0 else None


@dataclass
class CacheStats:
    """Counters + on-disk footprint of one :class:`ResultCache`.

    ``entries``/``size_bytes`` come from a scan of the entry files, so
    they include entries stored by any process.
    """

    path: str
    entries: int
    size_bytes: int
    hits: int
    misses: int
    stores: int
    errors: int
    evictions: int = 0
    hot_hits: int = 0


class _HotTier:
    """In-process LRU of recently read values (returned by reference)."""

    def __init__(self, max_entries: int, max_bytes: int):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._items: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0

    def get(self, key: str) -> Tuple[bool, Any]:
        try:
            value, size = self._items[key]
        except KeyError:
            return False, None
        self._items.move_to_end(key)
        return True, value

    def put(self, key: str, value: Any, size: int) -> None:
        if size > self.max_bytes:
            return
        self.pop(key)
        self._items[key] = (value, size)
        self._bytes += size
        while self._items and (len(self._items) > self.max_entries
                               or self._bytes > self.max_bytes):
            _, (_, dropped) = self._items.popitem(last=False)
            self._bytes -= dropped

    def pop(self, key: str) -> None:
        old = self._items.pop(key, None)
        if old is not None:
            self._bytes -= old[1]

    def clear(self) -> None:
        self._items.clear()
        self._bytes = 0


class ResultCache:
    """Content-addressed pickle store: sharded, LRU-capped.

    ``max_bytes`` (or ``REPRO_CACHE_MAX_BYTES``) bounds the on-disk
    footprint; exceeding it evicts least-recently-used entries (last
    use = the entry file's mtime, stamped on store and on disk reads
    while a cap is active).
    """

    def __init__(self, path: Optional[os.PathLike] = None,
                 max_bytes: Optional[int] = None):
        self.path = pathlib.Path(path) if path is not None \
            else default_cache_dir()
        self.max_bytes = max_bytes if max_bytes is not None \
            else cache_max_bytes()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.errors = 0
        self.evictions = 0
        self.hot_hits = 0
        self._hot = _HotTier(_HOT_ENTRIES, _HOT_BYTES)

    # -- keys ---------------------------------------------------------------
    def key(self, *parts: Any) -> str:
        """Alias for :func:`repro.cache.stable_key`."""
        return stable_key(*parts)

    def _file(self, key: str) -> pathlib.Path:
        return self.path / key[:_SHARD_WIDTH] / f"{key}.pkl"

    def _scan(self) -> Iterator[Tuple[str, int, float]]:
        """``(key, size, mtime)`` of every entry file on disk."""
        for entry in self.path.glob("*/*.pkl"):
            with contextlib.suppress(OSError):  # removed mid-scan
                st = entry.stat()
                yield entry.stem, st.st_size, st.st_mtime

    def _touch(self, path: pathlib.Path) -> None:
        """Stamp LRU recency; only a size cap ever reads it."""
        if self.max_bytes is not None:
            with contextlib.suppress(OSError):
                os.utime(path, (time.time(),) * 2)

    # -- telemetry -----------------------------------------------------------
    def _count(self, point: str, amount: int = 1) -> None:
        metrics = _metrics()
        if metrics is not None:
            metrics.counter(point).inc(amount)

    def _publish_bytes(self) -> None:
        metrics = _metrics()
        if metrics is not None:
            metrics.gauge("cache.bytes").set(
                float(sum(size for _, size, _ in self._scan())))

    # -- lookup / store -----------------------------------------------------
    def get(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a valid hit, else ``(False, None)``.

        Repeat reads are served from the in-process hot tier without
        touching the filesystem; corrupted, truncated or unreadable
        entries count as misses and are removed so the slot is
        recomputed cleanly.
        """
        hot, value = self._hot.get(key)
        if hot:
            self.hits += 1
            self.hot_hits += 1
            self._count("cache.hits")
            return True, value
        path = self._file(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            self._count("cache.misses")
            return False, None
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic")
            digest = blob[len(_MAGIC):len(_MAGIC) + 64]
            payload = blob[len(_MAGIC) + 64:]
            if hashlib.sha256(payload).hexdigest().encode() != digest:
                raise ValueError("checksum mismatch")
            value = pickle.loads(payload)
        except Exception:  # reprolint: disable=RPR007 -- unpickling a corrupt blob can raise nearly anything; any failure means "treat as miss"
            # Detected corruption: drop the entry, report a miss.
            self.errors += 1
            self.misses += 1
            self._count("cache.misses")
            with contextlib.suppress(OSError):
                path.unlink()
            return False, None
        self.hits += 1
        self._count("cache.hits")
        self._touch(path)
        self._hot.put(key, value, len(payload))
        return True, value

    def put(self, key: str, value: Any) -> bool:
        """Store ``value``; returns False (and stays silent) when the
        value cannot be pickled or the directory is unwritable —
        caching is an optimization, never a failure mode."""
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # reprolint: disable=RPR007 -- unpicklable values raise arbitrary types; caching is best-effort, never a failure mode
            self.errors += 1
            return False
        blob = (_MAGIC
                + hashlib.sha256(payload).hexdigest().encode()
                + payload)
        target = self._file(key)
        tmp = None
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            # atomic publish: concurrent writers never expose a torn file
            fd, tmp = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
            try:
                os.write(fd, blob)
            finally:
                os.close(fd)
            os.replace(tmp, target)
        except OSError:
            # e.g. ENOSPC: degrade to a miss and leave no temp file behind
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            self.errors += 1
            return False
        self.stores += 1
        self._touch(target)
        self._evict_to_cap(protect=key)
        self._publish_bytes()
        return True

    # -- eviction ------------------------------------------------------------
    def _evict_to_cap(self, protect: Optional[str] = None) -> int:
        """Drop least-recently-used entries until under ``max_bytes``."""
        if self.max_bytes is None:
            return 0
        entries = list(self._scan())
        total = sum(size for _, size, _ in entries)
        if total <= self.max_bytes:
            return 0
        candidates = sorted((mtime, key, size)
                            for key, size, mtime in entries
                            if key != protect)
        evicted = 0
        for _, key, size in candidates:
            if total <= self.max_bytes:
                break
            with contextlib.suppress(OSError):
                self._file(key).unlink()
            self._hot.pop(key)
            total -= size
            evicted += 1
        if evicted:
            self.evictions += evicted
            self._count("cache.evictions", evicted)
        return evicted

    # -- maintenance --------------------------------------------------------
    def invalidate(self, key: str) -> bool:
        """Drop one entry; True when something was removed."""
        self._hot.pop(key)
        try:
            self._file(key).unlink()
        except OSError:
            return False
        return True

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for key, _, _ in list(self._scan()):
            with contextlib.suppress(OSError):
                self._file(key).unlink()
                removed += 1
        self._hot.clear()
        return removed

    def keys(self) -> List[str]:
        """Every stored key (sorted)."""
        return sorted(key for key, _, _ in self._scan())

    def stats(self) -> CacheStats:
        """Counters for this handle + the on-disk footprint."""
        entries = 0
        size = 0
        for _, n, _ in self._scan():
            entries += 1
            size += n
        return CacheStats(path=str(self.path), entries=entries,
                          size_bytes=size, hits=self.hits,
                          misses=self.misses, stores=self.stores,
                          errors=self.errors, evictions=self.evictions,
                          hot_hits=self.hot_hits)
