"""TLB model: a fully-associative LRU cache of page translations.

Not part of the paper's measurements, but column walks with large leading
dimensions are exactly the access shape that thrashes a TLB, so the
ablation suite reports TLB misses alongside cache misses. The R10000
family has a 64-entry fully-associative TLB with (configurable) 4 KB-16 MB
pages; we model 64 entries x 4 KB by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError
from repro.machine.sinks import check_addresses
from repro.machine.window import lru_window


@dataclass(frozen=True)
class TLBConfig:
    """Geometry of the translation cache."""

    entries: int = 64
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise MachineError("TLB needs at least one entry")
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise MachineError("page size must be a positive power of two")

    @property
    def page_shift(self) -> int:
        """log2(page size)."""
        return self.page_bytes.bit_length() - 1


class TLBSink:
    """Streaming TLB replay over address chunks.

    The resident pages persist across chunks in LRU→MRU order; each chunk
    is one call of the vectorized window shared with the register file
    (:func:`~repro.machine.window.lru_window`).
    """

    def __init__(self, config: TLBConfig):
        self.config = config
        self._resident = np.empty(0, dtype=np.int64)
        self._misses = 0

    def feed(self, addresses: np.ndarray) -> None:
        """Translate one chunk of byte addresses."""
        pages = check_addresses(addresses) >> self.config.page_shift
        hit, self._resident = lru_window(pages, self._resident, self.config.entries)
        self._misses += len(hit) - int(np.count_nonzero(hit))

    def finish(self) -> int:
        """Total TLB misses."""
        return self._misses


def simulate_tlb(config: TLBConfig, addresses: np.ndarray) -> int:
    """Number of TLB misses over the address stream (cold-start)."""
    sink = TLBSink(config)
    sink.feed(addresses)
    return sink.finish()
