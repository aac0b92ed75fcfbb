"""Cache plumbing shared by the runner and the polyhedral memo.

The experiment runner used to memoise builds and measurements in plain
module-level dicts — unbounded, and with no way to reset them between
sweeps. :class:`LRUCache` bounds the footprint (oldest-used entries fall
out first) and supports explicit clearing. :func:`disk_cache_dir` is the
one reading of the disk-cache settings, so the measurement cache and the
analysis memo's side file can never disagree on where (or whether) to
persist.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Hashable, Iterator, MutableMapping


def disk_cache_dir() -> Path | None:
    """The disk-cache directory: ``None`` when ``REPRO_NO_CACHE=1``, else
    ``REPRO_CACHE_DIR`` (default ``.repro_cache``)."""
    if os.environ.get("REPRO_NO_CACHE", "") == "1":
        return None
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


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
