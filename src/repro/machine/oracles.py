"""Pure-Python reference models: the test oracles of the machine layer.

Each function is the original per-access walk that a vectorized production
engine replaced, kept verbatim so the tests and ``benchmarks/`` can
cross-check the engine against an independent model. No production module
imports this one (a test asserts it), so the oracles are never an
alternative path to a reported number.

- :func:`simulate_cache_reference` — :class:`~repro.machine.cache.CacheSink`;
- :func:`stack_distances_reference` —
  :func:`~repro.machine.cache.stack_distances`;
- :func:`filter_loads_reference` —
  :class:`~repro.machine.registers.RegisterFilterSink`;
- :func:`simulate_writeback_reference` —
  :class:`~repro.machine.writeback.WritebackSink`;
- :func:`two_bit_predictor_reference` —
  :class:`~repro.machine.branch.TwoBitPredictorSink`.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.errors import MachineError
from repro.machine.branch import BranchStats
from repro.machine.cache import CacheConfig
from repro.machine.registers import ELEMENT_SHIFT, RegisterFilterResult
from repro.machine.writeback import WritebackResult


def simulate_cache_reference(config: CacheConfig, addresses: np.ndarray) -> np.ndarray:
    """The original per-access pure-Python simulator (oracle).

    Retained verbatim as the cross-check target for :class:`CacheSink`'s
    vectorized replay; roughly 0.3 µs per access.
    """
    if addresses.ndim != 1:
        raise MachineError("addresses must be a 1-D array")
    n = len(addresses)
    misses = np.zeros(n, dtype=bool)
    if n == 0:
        return misses
    lines = (addresses >> config.line_shift).tolist()
    nsets = config.num_sets
    assoc = config.assoc
    sets: list[list[int]] = [[] for _ in range(nsets)]
    miss_list = [False] * n
    for pos, line in enumerate(lines):
        ways = sets[line % nsets]
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
        else:
            miss_list[pos] = True
            ways.insert(0, line)
            if len(ways) > assoc:
                ways.pop()
    return np.asarray(miss_list, dtype=bool)


def stack_distances_reference(addresses: np.ndarray, line_shift: int) -> np.ndarray:
    """Original list-based Mattson stack (oracle for :func:`stack_distances`)."""
    lines = (np.asarray(addresses) >> line_shift).tolist()
    stack: list[int] = []
    out = np.empty(len(lines), dtype=np.int64)
    for pos, line in enumerate(lines):
        try:
            depth = stack.index(line)
        except ValueError:
            out[pos] = -1
            stack.insert(0, line)
            continue
        out[pos] = depth
        if depth:
            del stack[depth]
            stack.insert(0, line)
    return out


def filter_loads_reference(
    addresses: np.ndarray,
    is_write: np.ndarray,
    capacity: int = 32,
) -> RegisterFilterResult:
    """The original per-access ``OrderedDict`` walk (oracle for
    :class:`RegisterFilterSink`'s vectorized window)."""
    n = len(addresses)
    if capacity == 0 or n == 0:
        return RegisterFilterResult(to_memory=np.ones(n, dtype=bool), load_hits=0)
    elements = (np.asarray(addresses) >> ELEMENT_SHIFT).tolist()
    writes = np.asarray(is_write).astype(bool).tolist()
    window: OrderedDict[int, None] = OrderedDict()
    keep = [True] * n
    hits = 0
    for pos, elem in enumerate(elements):
        resident = elem in window
        if resident:
            window.move_to_end(elem)
        else:
            window[elem] = None
            if len(window) > capacity:
                window.popitem(last=False)
        if resident and not writes[pos]:
            keep[pos] = False
            hits += 1
    return RegisterFilterResult(to_memory=np.asarray(keep, dtype=bool), load_hits=hits)


def simulate_writeback_reference(
    config: CacheConfig, addresses: np.ndarray, is_write: np.ndarray
) -> WritebackResult:
    """The original per-access ``[line, dirty]`` list walk (oracle for
    :class:`WritebackSink`), over the whole stream in one pass."""
    if len(addresses) != len(is_write):
        raise MachineError("addresses and is_write must align")
    sets_state: list[list[list]] = [[] for _ in range(config.num_sets)]
    writebacks = 0
    n = len(addresses)
    miss_list = [False] * n
    if n:
        lines = (np.asarray(addresses) >> config.line_shift).tolist()
        writes = np.asarray(is_write).astype(bool).tolist()
        nsets = config.num_sets
        assoc = config.assoc
        sets = sets_state
        for pos, line in enumerate(lines):
            ways = sets[line % nsets]
            hit = None
            for way in ways:
                if way[0] == line:
                    hit = way
                    break
            if hit is not None:
                if ways[0] is not hit:
                    ways.remove(hit)
                    ways.insert(0, hit)
                if writes[pos]:
                    hit[1] = True
            else:
                miss_list[pos] = True
                ways.insert(0, [line, writes[pos]])
                if len(ways) > assoc:
                    victim = ways.pop()
                    if victim[1]:
                        writebacks += 1
    mask = np.asarray(miss_list, dtype=bool)
    dirty = sum(1 for ways in sets_state for way in ways if way[1])
    return WritebackResult(
        miss_count=int(mask.sum()),
        writebacks=writebacks,
        dirty_at_end=dirty,
        misses=mask,
    )


def two_bit_predictor_reference(site_ids: np.ndarray, taken: np.ndarray) -> BranchStats:
    """Per-site 2-bit counters replayed grouped by site (oracle for
    :class:`TwoBitPredictorSink`, which interleaves the sites in trace
    order). Sites are independent, so events are processed grouped by
    site (stable order within a site)."""
    n = len(site_ids)
    if n == 0:
        return BranchStats(0, 0)
    order = np.argsort(site_ids, kind="stable")
    sid_sorted = site_ids[order]
    taken_sorted = taken[order].tolist()
    boundaries = np.flatnonzero(np.diff(sid_sorted)) + 1
    starts = [0, *boundaries.tolist()]
    ends = [*boundaries.tolist(), n]
    mispredicted = 0
    for start, end in zip(starts, ends):
        state = 2  # weakly taken
        for pos in range(start, end):
            outcome = taken_sorted[pos]
            if (state >= 2) != bool(outcome):
                mispredicted += 1
            if outcome:
                if state < 3:
                    state += 1
            elif state > 0:
                state -= 1
    return BranchStats(resolved=n, mispredicted=mispredicted)
