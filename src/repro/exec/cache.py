"""Content-addressed result store under ``results/cache/``.

Entries are one JSON file per job key holding the session digest
(:func:`repro.core.persistence.result_to_document`) plus job metadata.
Reads verify the recorded key and fall back to recompute on any decode
or reconstruction error, deleting the corrupt entry; writes go through a
temp file + hard link so a killed worker can never leave a torn entry
behind and concurrent writers racing on one key resolve deterministically
(first writer wins; the losers' recomputed-but-identical entries are
discarded, so a ``get`` after any ``put`` always reads one stable entry).

Long-lived daemons (``repro.serve``) keep a cache open indefinitely:
:meth:`ResultCache.stats` sizes it and :meth:`ResultCache.prune` evicts
least-recently-used entries (reads touch the entry mtime) down to a byte
budget.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..core.persistence import result_from_document
from ..core.profiler import ProfileResult

logger = logging.getLogger(__name__)

ENTRY_FORMAT = 1

#: Environment overrides honoured by :func:`default_cache`.
CACHE_DIR_ENV = "PATHFINDER_CACHE_DIR"
CACHE_DISABLE_ENV = "PATHFINDER_NO_CACHE"

DEFAULT_CACHE_DIR = Path("results") / "cache"


class ResultCache:
    """A directory of content-addressed :class:`ProfileResult` digests."""

    def __init__(self, root: Union[str, Path] = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    # -- plumbing --------------------------------------------------------

    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed cache key: {key!r}")
        return self.root / f"{key}.json"

    def entry_path(self, key: str) -> Path:
        """Where ``key``'s entry lives (whether or not it exists yet).

        Public so tiered stores (:class:`repro.durable.PullThroughCache`)
        can hydrate and publish entries as whole files.
        """
        return self._path(key)

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))

    # -- read ------------------------------------------------------------

    def get(self, key: str) -> Optional[ProfileResult]:
        """Return the cached result, or None on miss/corruption."""
        entry = self.get_entry(key)
        if entry is None:
            return None
        try:
            return result_from_document(entry["session"])
        except Exception as exc:  # corrupt entry: recompute, don't crash
            self.discard(key, exc)
            return None

    def discard(self, key: str, error: Exception) -> None:
        """Drop a hit whose session will not rebuild; it counts as a miss.

        The caller recomputes the job, and its result takes the place
        of the deleted entry.
        """
        path = self._path(key)
        logger.warning("dropping corrupt cache entry %s: %s", path, error)
        try:
            path.unlink()
        except OSError:
            pass
        self.hits -= 1
        self.misses += 1

    def get_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The verified raw entry (``session`` digest + ``meta``) or None.

        What a long-lived server wants on the idempotent-resubmission
        path: hit detection and counter totals straight off the stored
        document, without paying :func:`result_from_document`'s analysis
        replay.  Counts a hit/miss and refreshes LRU recency exactly like
        :meth:`get`.
        """
        path = self._path(key)
        try:
            raw = path.read_text()
        except (OSError, FileNotFoundError):
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if entry.get("entry_format") != ENTRY_FORMAT:
                raise ValueError(
                    f"unsupported cache entry format: {entry.get('entry_format')}"
                )
            if entry.get("key") != key:
                raise ValueError("cache entry key mismatch")
        except Exception as exc:  # corrupt entry: recompute, don't crash
            logger.warning("dropping corrupt cache entry %s: %s", path, exc)
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        self._touch(path)
        return entry

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's mtime (LRU recency for :meth:`prune`)."""
        try:
            os.utime(path)
        except OSError:
            pass

    # -- write -----------------------------------------------------------

    def put_document(
        self,
        key: str,
        session_document: Dict[str, Any],
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Store a session document under ``key``; first writer wins.

        Writes go to a temp file that is hard-linked into place, which is
        atomic *and* exclusive: when two writers race on one key, exactly
        one entry survives and later ``get`` calls deterministically read
        that entry (instead of whichever loser renamed last).  Entries
        for one key are content-equal by construction - the key hashes
        the whole job - so losing the race costs nothing.
        """
        path = self._path(key)
        self.root.mkdir(parents=True, exist_ok=True)
        entry = {
            "entry_format": ENTRY_FORMAT,
            "key": key,
            "meta": meta or {},
            "session": session_document,
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=f".{key[:12]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle)
            try:
                os.link(tmp_name, path)
            except FileExistsError:
                pass  # a concurrent writer won; keep its entry
            except OSError:
                # Filesystem without hard links: fall back to the (last-
                # writer-wins, still atomic) rename.
                os.replace(tmp_name, path)
                return path
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        return path

    # -- maintenance -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Size and traffic counters for this store."""
        entries = 0
        total_bytes = 0
        oldest: Optional[float] = None
        newest: Optional[float] = None
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries += 1
                total_bytes += stat.st_size
                mtime = stat.st_mtime
                oldest = mtime if oldest is None else min(oldest, mtime)
                newest = mtime if newest is None else max(newest, mtime)
        lookups = self.hits + self.misses
        return {
            "root": str(self.root),
            "entries": entries,
            "total_bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hits / lookups if lookups else 0.0,
            "oldest_mtime": oldest,
            "newest_mtime": newest,
        }

    def prune(self, max_bytes: int) -> Dict[str, Any]:
        """Evict least-recently-used entries until <= ``max_bytes`` remain.

        Recency is entry mtime, which :meth:`get` refreshes on every hit,
        so a long-lived daemon keeps its warm entries and sheds the cold
        tail.  Returns ``{"removed": n, "freed_bytes": b,
        "remaining_bytes": r}``.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        entries = []
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first
        total = sum(size for _, size, _ in entries)
        removed = 0
        freed = 0
        for _, size, path in entries:
            if total - freed <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
            freed += size
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining_bytes": total - freed,
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def link_or_copy(src: Union[str, Path], dst: Union[str, Path]) -> None:
    """Materialize ``src`` at ``dst``: hard link, else atomic copy.

    First writer wins (an existing ``dst`` is kept untouched), matching
    :meth:`ResultCache.put_document`'s race discipline; entries for one
    key are content-equal so losing costs nothing.  Raises ``OSError``
    only when ``dst`` could not be produced at all.
    """
    src = Path(src)
    dst = Path(dst)
    dst.parent.mkdir(parents=True, exist_ok=True)
    try:
        os.link(src, dst)
        return
    except FileExistsError:
        return
    except OSError:
        pass  # cross-device or no-hard-link fs: copy below
    fd, tmp_name = tempfile.mkstemp(dir=str(dst.parent),
                                    prefix=f".{dst.stem[:12]}.",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(src.read_bytes())
        try:
            os.link(tmp_name, dst)
        except FileExistsError:
            pass
        except OSError:
            os.replace(tmp_name, dst)
            return
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass


def coerce_cache(
    cache: Union[None, bool, str, Path, ResultCache]
) -> Optional[ResultCache]:
    """Normalize the many ways callers spell 'use a cache'."""
    if cache is None or cache is False:
        return None
    if cache is True:
        return default_cache()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def default_cache() -> Optional[ResultCache]:
    """The process-default cache, honouring the env overrides."""
    if os.environ.get(CACHE_DISABLE_ENV, "") not in ("", "0"):
        return None
    return ResultCache(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))
