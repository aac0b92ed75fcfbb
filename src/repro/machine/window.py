"""Vectorized LRU replay: the one engine behind every LRU-threshold question.

The register file, the TLB and the caches all ask one question per access:
is its key (an element, a page or a cache line) among the ``capacity`` most
recently touched distinct keys of its set? By the Mattson inclusion
property that holds iff the access's LRU stack distance — the number of
distinct keys touched since the previous access to the same key — is below
``capacity``. :func:`lru_replay` answers it for a whole key sequence with
NumPy passes instead of a per-access walk. Decisions, cheapest first:

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

Streaming state is the resident keys, LRU→MRU, prepended to the chunk as
*virtual accesses*: an access whose previous occurrence falls in that
prefix then sees exactly the keys more recent than it plus those the chunk
has touched since, its true stack distance. Resident keys are distinct, so
a virtual access never has a previous occurrence. Two callers build the
sequence:

- :func:`lru_window` (register file, TLB): the resident keys, then the chunk.
- :func:`replay_sets` (caches, write-back): the chunk grouped by set, each
  touched set's group being its resident lines then its accesses, with
  ``capacity = assoc``. A line maps to one set, so ``p`` and ``i`` lie in
  the same group and the gap, the ``W <= g`` window and the exact count
  stay inside ``(p, i)``. A ``W > g`` window may reach into earlier
  groups, but then counts a superset of ``(p, i)`` plus the line at
  ``p``, so ``d_W <= capacity`` still proves a hit. Each set's new ways
  are its group's last ``assoc`` distinct lines by last occurrence.
"""

from __future__ import annotations

import numpy as np

#: Window sizes of the distinct-count bounds, the most decisive first. On
#: the ``figure5 --quick`` register stream 64 decides 13.0M of the 13.4M
#: accesses the gap leaves open and 128 a further 174K; 32 would add 255.
BOUND_WINDOWS = (64, 128)

#: Most positions gathered at once by the exact distinct count.
EXACT_BATCH = 1 << 16


def _previous_occurrence(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's previous occurrence in *keys* (``-1`` if none), and the
    stable argsort that found them."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    same = ordered[1:] == ordered[:-1]
    prev = np.full(len(keys), -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    return prev, order


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


def lru_replay(prev: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Decide every access of a key sequence, given as each access's
    previous occurrence *prev* (from :func:`_previous_occurrence`), against
    an LRU stack of *capacity* (>= 1) keys (see the module docstring).

    Returns ``(hit, last)``: ``hit[j]`` is True iff the key at ``j`` was
    among the *capacity* most recent distinct keys before ``j``; ``last``
    holds the ascending positions of each key's last occurrence.
    """
    reused = np.flatnonzero(prev >= 0)
    # Distances back to the previous and on to the next occurrence of the
    # same key, `none` standing for "no such occurrence"; int32 when it
    # fits, which halves the two largest arrays of the replay.
    dtype = np.int32 if len(prev) < 2**31 - 1 else np.int64
    none = np.iinfo(dtype).max
    to_prev = np.full(len(prev), none, dtype=dtype)
    to_prev[reused] = reused - prev[reused]
    to_next = np.full(len(prev), none, dtype=dtype)
    to_next[prev[reused]] = to_prev[reused]
    last = np.flatnonzero(to_next == none)

    # Gap test (decision 2): g = to_prev - 1 < capacity.
    hit = to_prev <= capacity
    open_ = np.flatnonzero(~hit & (to_prev < none))
    gap = to_prev[open_] - 1
    for width in BOUND_WINDOWS:
        if len(open_) == 0:
            return hit, last
        distinct = _window_distinct(to_prev, to_next, open_, width)
        covers = width > gap
        decided = np.where(covers, distinct <= capacity, distinct >= capacity)
        hit[open_[decided & covers]] = True
        open_, gap = open_[~decided], gap[~decided]
    if len(open_):
        hit[open_[_exact_distinct(prev, open_) < capacity]] = True
    return hit, last


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
    # The argsort is dropped at once: holding one more chunk-sized array
    # through the replay made the TLB pass page-fault measurably more.
    hit, last = lru_replay(_previous_occurrence(seq)[0], capacity)
    # New window: the last `capacity` distinct keys by last occurrence.
    return hit[m:], seq[last[-capacity:]]


def group_by_set(
    sets: np.ndarray, num_sets: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group a non-empty chunk by set: ``(order, starts, touched, run_len)``.

    ``order`` stably sorts the accesses by set; in that order the accesses
    of set ``touched[k]`` start at ``starts[k]`` and number ``run_len[k]``.
    NumPy's stable argsort is a radix sort only for <= 16-bit dtypes
    (timsort otherwise, several times slower), so the set indices, which
    are tiny, are narrowed first.
    """
    if num_sets <= 1 << 16:
        sets = sets.astype(np.uint8 if num_sets <= 1 << 8 else np.uint16)
    order = np.argsort(sets, kind="stable")
    s = sets[order]
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    return order, starts, s[starts].astype(np.int64), np.diff(np.append(starts, len(s)))


def replay_sets(
    sets: np.ndarray,
    lines: np.ndarray,
    state: np.ndarray,
    writes: np.ndarray | None = None,
    dirty: np.ndarray | None = None,
) -> tuple[np.ndarray, int]:
    """Replay one non-empty chunk of *lines* (mapping to *sets*) through
    per-set LRU stacks; returns ``(miss, writebacks)``.

    *state* is the ``(num_sets, assoc)`` array of resident lines per set,
    MRU first, ``-1`` marking an empty way; it is updated in place. Given
    per-access *writes* and the per-way *dirty* flags (also updated in
    place), ``writebacks`` counts the dirty lines the chunk evicts, by the
    residency-interval rule of :mod:`repro.machine.writeback`; otherwise
    it is 0.
    """
    num_sets, assoc = state.shape
    n = len(lines)
    order, _, touched, run_len = group_by_set(sets, num_sets)
    # Each touched set's resident lines, LRU→MRU, head its group.
    ways = state[touched, ::-1]
    valid = ways >= 0
    n_valid = valid.sum(axis=1)
    real = np.arange(n) + np.repeat(np.cumsum(n_valid), run_len)
    virtual = np.arange(int(n_valid.sum())) + np.repeat(
        np.cumsum(run_len) - run_len, n_valid
    )
    seq = np.empty(n + len(virtual), dtype=np.int64)
    seq[real] = lines[order]
    seq[virtual] = ways[valid]
    prev, by_line = _previous_occurrence(seq)
    hit, last = lru_replay(prev, assoc)
    miss = np.empty(n, dtype=bool)
    miss[order] = ~hit[real]

    # New ways: the last `assoc` distinct lines of each group, MRU first.
    group_starts = np.cumsum(n_valid + run_len) - n_valid - run_len
    group = np.searchsorted(group_starts, last, side="right") - 1
    rank = np.cumsum(np.bincount(group))[group] - 1 - np.arange(len(group))
    keep = rank < assoc
    kept = last[keep]
    rows, cols = touched[group[keep]], rank[keep]
    state[touched] = -1
    state[rows, cols] = seq[kept]
    if writes is None:
        return miss, 0

    # Residency intervals: each line's accesses split at its misses
    # (virtual accesses never hit), flagged by any write among them.
    flag = np.empty(len(seq), dtype=bool)
    flag[real] = writes[order]
    flag[virtual] = dirty[touched, ::-1][valid]
    opens = np.flatnonzero(~hit[by_line])
    interval_dirty = np.logical_or.reduceat(flag[by_line], opens)
    ends = by_line[np.append(opens[1:], len(seq)) - 1]
    resident = np.zeros(len(seq), dtype=bool)
    resident[kept] = True
    flag[ends] = interval_dirty
    dirty[touched] = False
    dirty[rows, cols] = flag[kept]
    return miss, int(np.count_nonzero(interval_dirty & ~resident[ends]))
