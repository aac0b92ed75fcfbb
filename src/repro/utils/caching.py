"""Cache plumbing shared by the runner and the polyhedral memo.

:class:`LRUCache` bounds the in-process memos and supports explicit
clearing. :data:`disk_store` is the one disk layer, shared by the
measurement runner and the analysis memo, and :func:`disk_cache_dir` the
one reading of its settings. Keys cover the *inputs* of a computation;
the code that computes is covered by the store's file name, which carries
:func:`code_salt`, so editing any ``repro`` module starts a fresh store
and answers of older code are never read.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Hashable, Iterator, MutableMapping

from repro import telemetry

_log = logging.getLogger("repro.cache")

#: :meth:`DiskStore.get`'s answer for an absent or corrupt entry.
MISS: Any = object()


def disk_cache_dir() -> Path | None:
    """The disk-cache directory: ``None`` when ``REPRO_NO_CACHE=1``, else
    ``REPRO_CACHE_DIR`` (default ``.repro_cache``)."""
    if os.environ.get("REPRO_NO_CACHE", "") == "1":
        return None
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


@functools.cache
def code_salt() -> str:
    """Digest of the relative path and bytes of every ``.py`` file in the
    imported ``repro`` package (computed once per process)."""
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


class DiskStore:
    """Append-only JSONL file ``disk_cache_dir() / "store-<salt>.jsonl"``
    of ``{"k": "<namespace>|<key>", "v": <json>}`` entries.

    The file is read into a dict view at the first access; :meth:`forget`
    drops the view, so the next access sees exactly what was persisted.
    Each :meth:`put` appends its line with one ``write()``, so concurrent
    sweep workers can share the file. A torn, unreadable or undecodable
    entry is a miss, counted (``cache.corrupt``) and logged, never
    trusted; an ``OSError`` means "not cached". With the disk cache off
    nothing is read, written or salted.
    """

    def __init__(self) -> None:
        self._path: Path | None = None
        self._entries: dict[str, Any] | None = None

    def _view(self) -> dict[str, Any] | None:
        base = disk_cache_dir()
        if base is None:
            return None
        path = base / f"store-{code_salt()}.jsonl"
        if self._entries is not None and path == self._path:
            return self._entries
        self._path, self._entries = path, {}
        with telemetry.span("cache.load", salt=code_salt()) as sp:
            try:
                with open(path, "rb") as fh:
                    for line in fh:
                        try:
                            record = json.loads(line)
                            self._entries[record["k"]] = record["v"]
                        except (ValueError, KeyError, TypeError) as exc:
                            _corrupt(path, exc)
            except FileNotFoundError:
                pass
            except OSError as exc:
                _corrupt(path, exc)
            sp.set(entries=len(self._entries))
        return self._entries

    def get(self, namespace: str, key: str, decode: Callable[[Any], Any] = lambda v: v) -> Any:
        """``decode(value)`` of the entry, or :data:`MISS`. A value that
        *decode* rejects (``KeyError``/``TypeError``/``ValueError``) is
        corrupt and leaves the view, so a later :meth:`put` replaces it."""
        entries = self._view()
        full = f"{namespace}|{key}"
        if entries is None or full not in entries:
            return MISS
        try:
            return decode(entries[full])
        except (KeyError, TypeError, ValueError) as exc:
            del entries[full]
            _corrupt(full, exc)
            return MISS

    def put(self, namespace: str, key: str, value: Any) -> None:
        """Persist a JSON-serialisable *value* (the first write wins)."""
        entries = self._view()
        full = f"{namespace}|{key}"
        if entries is None or full in entries:
            return
        entries[full] = value
        line = json.dumps({"k": full, "v": value}, separators=(",", ":")) + "\n"
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self._path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                os.write(fd, line.encode())
            finally:
                os.close(fd)
        except OSError:
            pass

    def forget(self) -> None:
        """Drop the loaded view (the file is untouched)."""
        self._path = self._entries = None


def _corrupt(where: Any, exc: BaseException) -> None:
    telemetry.counter("cache.corrupt")
    _log.warning(
        "disk store: discarding unreadable entry %s (%s: %s)",
        where, type(exc).__name__, exc,
    )


#: The process-wide store; ``repro.poly.memo.clear_memos`` forgets its view.
disk_store = DiskStore()


class LRUCache(MutableMapping):
    """A dict with a maximum size, evicting the least-recently-used entry.

    Reads and writes both refresh recency. ``maxsize=None`` means
    unbounded (but still clearable).
    """

    def __init__(self, maxsize: int | None = 128):
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __getitem__(self, key: Hashable) -> Any:
        value = self._data[key]
        self._data.move_to_end(key)
        return value

    def __setitem__(self, key: Hashable, value: Any) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if self.maxsize is not None and len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Recency-refreshing lookup without the ``Mapping.get`` exception
        round-trip (this is the hot path of the intern tables)."""
        data = self._data
        if key in data:
            data.move_to_end(key)
            return data[key]
        return default

    def __delitem__(self, key: Hashable) -> None:
        del self._data[key]

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value, computing (and caching) it on a miss."""
        try:
            value = self[key]
        except KeyError:
            self.misses += 1
            value = compute()
            self[key] = value
        else:
            self.hits += 1
        return value

    def clear(self) -> None:
        self._data.clear()

    def __repr__(self) -> str:
        cap = "∞" if self.maxsize is None else self.maxsize
        return (
            f"LRUCache({len(self._data)}/{cap}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )
