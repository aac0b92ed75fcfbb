"""Register-file model: load filtering ahead of the cache hierarchy.

The MIPSpro compiler keeps recently used array elements in the R14000A's
32 floating-point registers; a load whose value is already register-resident
never issues. This matters for exactly the effect the paper highlights for
Jacobi: with the time loop innermost, consecutive time steps touch the same
elements, and the compiler turns those reloads into register reuse ("we have
also reduced the number of array loads in the tiled code by an average of
40.9%").

The model is a fully-associative LRU window of *element* addresses:

- a load hits (is elided) iff its element is among the ``capacity`` most
  recently touched distinct elements;
- stores always reach memory (write-through towards the cache model) and
  make their element register-resident (store-to-load forwarding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError
from repro.machine.sinks import check_accesses
from repro.machine.window import lru_window

#: Element granularity (doubles).
ELEMENT_SHIFT = 3


@dataclass(frozen=True)
class RegisterFilterResult:
    """Outcome of filtering one access stream."""

    #: True where the access must go to memory; ``None`` for streaming
    #: replays, where the mask is consumed chunk-by-chunk instead.
    to_memory: np.ndarray | None
    #: Number of loads elided by register reuse.
    load_hits: int


class RegisterFilterSink:
    """Streaming LRU register window over ``(addresses, is_write)`` chunks.

    ``feed`` returns the chunk's keep mask (``True`` where the access goes
    to memory) so the fused pipeline can filter the address stream before
    the cache hierarchy; the window itself persists across chunks as its
    resident elements in LRU→MRU order. Each chunk is replayed by the
    vectorized :func:`~repro.machine.window.lru_window`, whose cost per
    access is a few NumPy passes however long the chunk;
    :func:`repro.machine.oracles.filter_loads_reference` is the per-access
    oracle it is tested against.
    """

    def __init__(self, capacity: int = 32):
        if capacity < 0:
            raise MachineError("register capacity must be non-negative")
        self.capacity = capacity
        self._resident = np.empty(0, dtype=np.int64)
        self._hits = 0

    def feed(self, chunk: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Filter one chunk; returns its boolean to-memory mask."""
        addresses, is_write = check_accesses(chunk)
        if len(addresses) == 0:
            return np.ones(0, dtype=bool)
        hit, self._resident = lru_window(
            addresses >> ELEMENT_SHIFT, self._resident, self.capacity
        )
        keep = ~hit | is_write
        self._hits += len(keep) - int(np.count_nonzero(keep))
        return keep

    def finish(self) -> RegisterFilterResult:
        """Accumulated hit count (no global mask in streaming mode)."""
        return RegisterFilterResult(to_memory=None, load_hits=self._hits)


def filter_loads(
    addresses: np.ndarray,
    is_write: np.ndarray,
    capacity: int = 32,
) -> RegisterFilterResult:
    """Filter the access stream through an LRU register window."""
    sink = RegisterFilterSink(capacity)
    keep = sink.feed((addresses, is_write))
    return RegisterFilterResult(to_memory=keep, load_hits=sink.finish().load_hits)
