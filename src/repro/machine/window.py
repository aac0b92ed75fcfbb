"""Vectorized fully-associative LRU window: the register file and the TLB.

Both models ask one question per access: is its key (an element or a page)
among the ``capacity`` most recently touched distinct keys? By the Mattson
inclusion property that holds iff the access's LRU stack distance — the
number of distinct keys touched since the previous access to the same key —
is below ``capacity``. :func:`lru_window` answers it for a whole chunk with
NumPy passes instead of a per-access dictionary walk.

Streaming state is the resident window itself, in LRU→MRU order. Each call
prepends it to the chunk as virtual accesses: an access whose previous
occurrence falls in that prefix then sees exactly the keys that were more
recent than it (the prefix positions after it) plus the keys the chunk has
touched since, which is its true stack distance. Decisions, cheapest first:

1. no previous occurrence: miss;
2. the raw gap ``g = i - p - 1`` (accesses strictly between the previous
   occurrence ``p`` and ``i``) bounds the distance from above, so
   ``g < capacity`` is a hit;
3. ``d_W(i)``, the number of distinct keys among the ``W`` accesses before
   ``i``, bounds it from either side: if ``W <= g`` the window lies inside
   ``(p, i)``, so ``d_W >= capacity`` is a miss; if ``W > g`` the window
   covers ``[p, i)``, whose key at ``p`` is absent from ``(p, i)``, so
   ``d_W <= capacity`` is a hit. Each ``d_W`` is two O(n) running counts
   over the reuse pairs ``(prev[k], k)``;
4. the few accesses left are counted exactly: the distinct keys in
   ``(p, i)`` are the positions ``k`` there whose own previous occurrence
   is at or before ``p``. The gathers run in bounded batches so peak
   memory does not grow with the gaps.
"""

from __future__ import annotations

import numpy as np

#: Window sizes of the distinct-count bounds, the most decisive first. On
#: the ``figure5 --quick`` register stream 64 decides 13.0M of the 13.4M
#: accesses the gap leaves open and 128 a further 174K; 32 would add 255.
BOUND_WINDOWS = (64, 128)

#: Most positions gathered at once by the exact distinct count.
EXACT_BATCH = 1 << 16

#: Distance standing for "no previous / next occurrence".
_NONE = 1 << 62


def _previous_occurrence(keys: np.ndarray) -> np.ndarray:
    """Index of each key's previous occurrence in *keys* (``-1`` if none)."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    same = ordered[1:] == ordered[:-1]
    prev = np.full(len(keys), -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _running_count(mask: np.ndarray) -> np.ndarray:
    """``out[j]`` = number of True entries of *mask* before position ``j``."""
    out = np.zeros(len(mask) + 1, dtype=np.int32 if len(mask) < 2**31 else np.int64)
    np.cumsum(mask, out=out[1:])
    return out


def _window_distinct(
    to_prev: np.ndarray, to_next: np.ndarray, at: np.ndarray, width: int
) -> np.ndarray:
    """``d_W(i)``: distinct keys among positions ``[i - width, i)``, for ``i`` in *at*.

    The window holds ``min(width, i)`` positions; each reuse pair
    ``(q, k)`` inside it (``k - q < width``, ``i - width <= q``, ``k < i``)
    makes one of them a repeat. Pairs are counted by their later end
    (``to_prev``, distance back to ``q``) minus those whose earlier end
    has already left the window (``to_next``, distance on to ``k``).
    """
    closed = _running_count(to_prev < width)[at]
    left = _running_count(to_next < width)[np.maximum(at - width, 0)]
    return np.minimum(at, width) - (closed - left)


def _exact_distinct(prev: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Distinct keys strictly between ``prev[i]`` and ``i`` for each ``i`` in *at*."""
    lo = prev[at]
    lengths = at - lo - 1
    out = np.empty(len(at), dtype=np.int64)
    ends = np.cumsum(lengths)
    start = 0
    while start < len(at):
        budget = ends[start] - lengths[start] + EXACT_BATCH
        stop = max(int(np.searchsorted(ends, budget, side="right")), start + 1)
        lens = lengths[start:stop]
        offsets = np.cumsum(lens) - lens
        total = int(lens.sum())
        base = np.repeat(lo[start:stop] + 1 - offsets, lens)
        positions = base + np.arange(total)
        first = prev[positions] <= np.repeat(lo[start:stop], lens)
        out[start:stop] = np.add.reduceat(first.astype(np.int64), offsets)
        start = stop
    return out


def lru_window(
    keys: np.ndarray, resident: np.ndarray, capacity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Replay *keys* through an LRU window of *capacity* distinct keys.

    *resident* holds the window's keys before the chunk, LRU→MRU. Returns
    ``(hit, resident')``: ``hit[i]`` is True iff ``keys[i]`` was resident
    when accessed, and ``resident'`` is the window after the chunk. Every
    access, hit or miss, makes its key the most recently used.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    if capacity <= 0:
        return np.zeros(n, dtype=bool), np.empty(0, dtype=np.int64)
    if n == 0:
        return np.zeros(0, dtype=bool), resident
    m = len(resident)
    seq = np.concatenate((resident, keys)) if m else keys
    prev = _previous_occurrence(seq)
    reused = np.flatnonzero(prev >= 0)
    # Distances back to the previous and on to the next occurrence of the
    # same key.
    to_prev = np.full(len(seq), _NONE, dtype=np.int64)
    to_prev[reused] = reused - prev[reused]
    to_next = np.full(len(seq), _NONE, dtype=np.int64)
    to_next[prev[reused]] = to_prev[reused]

    # New window: the last `capacity` distinct keys by last occurrence.
    window = seq[np.flatnonzero(to_next == _NONE)[-capacity:]]

    gap = to_prev[m:] - 1
    hit = gap < capacity
    open_ = np.flatnonzero(~hit & (gap < _NONE - 1)) + m
    gap = gap[open_ - m]
    for width in BOUND_WINDOWS:
        if len(open_) == 0:
            return hit, window
        distinct = _window_distinct(to_prev, to_next, open_, width)
        covers = width > gap
        decided = np.where(covers, distinct <= capacity, distinct >= capacity)
        hit[open_[decided & covers] - m] = True
        open_, gap = open_[~decided], gap[~decided]
    if len(open_):
        hit[open_[_exact_distinct(prev, open_) < capacity] - m] = True
    return hit, window
