"""Write-back cache simulation (dirty-line eviction traffic).

The paper's analysis uses miss counts only; this extension models the
write-back traffic a real Octane2 generates, for the bandwidth ablation:
every store dirties its line, and evicting a dirty line costs a write of
one line to the next level. Tiling changes not only the miss count but the
*dirty* eviction count (tiled kernels overwrite resident lines many times
before eviction).

Residency comes from the shared LRU engine's set-grouped replay
(:func:`~repro.machine.window.replay_sets`); dirty evictions come from
*residency intervals*. A line's accesses in the replayed sequence are split
at its misses: each miss opens an interval, and so does the virtual access
that carries a resident line into the chunk, whose write flag is the
line's stored dirty flag. Then:

- an interval is dirty iff it contains a write;
- an interval is evicted in this chunk unless it is the last interval of a
  line still resident after the chunk (a later miss on the same line means
  it was evicted in between);
- ``writebacks`` grows by the dirty evicted intervals, and each resident
  line carries its last interval's dirty flag to the next chunk;
  ``dirty_at_end`` is their sum.

The per-access list walk this replaces is kept as the test oracle
:func:`repro.machine.oracles.simulate_writeback_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.cache import CacheConfig
from repro.machine.sinks import check_accesses
from repro.machine.window import replay_sets


@dataclass(frozen=True)
class WritebackResult:
    """Misses and dirty evictions of one replay."""

    miss_count: int
    writebacks: int
    #: dirty lines still resident at the end (flushed at program exit)
    dirty_at_end: int
    #: Per-access miss mask; ``None`` unless requested (``keep_mask``).
    misses: np.ndarray | None = None

    @property
    def total_writeback_lines(self) -> int:
        """Evicted-dirty plus final flush."""
        return self.writebacks + self.dirty_at_end


class WritebackSink:
    """Streaming write-allocate/write-back replay.

    Consumes ``(addresses, is_write)`` chunks; the per-set resident lines
    (MRU first, ``-1`` = empty way) and their dirty flags persist across
    chunks.
    """

    def __init__(self, config: CacheConfig, *, keep_mask: bool = False):
        self.config = config
        shape = (config.num_sets, config.assoc)
        self._state = np.full(shape, -1, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=bool)
        self._writebacks = 0
        self._miss_count = 0
        self._mask_chunks: list[np.ndarray] | None = [] if keep_mask else None

    def feed(self, chunk: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Replay one chunk; returns its per-access miss mask."""
        addresses, is_write = check_accesses(chunk)
        if len(addresses):
            lines = addresses >> self.config.line_shift
            mask, evicted = replay_sets(
                lines % self.config.num_sets,
                lines,
                self._state,
                is_write,
                self._dirty,
            )
            self._writebacks += evicted
        else:
            mask = np.zeros(0, dtype=bool)
        self._miss_count += int(mask.sum())
        if self._mask_chunks is not None:
            self._mask_chunks.append(mask)
        return mask

    def finish(self) -> WritebackResult:
        """Accumulated totals (plus the miss mask when requested)."""
        mask = None
        if self._mask_chunks is not None:
            mask = (
                np.concatenate(self._mask_chunks)
                if self._mask_chunks
                else np.zeros(0, dtype=bool)
            )
        return WritebackResult(
            miss_count=self._miss_count,
            writebacks=self._writebacks,
            dirty_at_end=int(np.count_nonzero(self._dirty)),
            misses=mask,
        )


def simulate_writeback(
    config: CacheConfig, addresses: np.ndarray, is_write: np.ndarray
) -> WritebackResult:
    """Replay with write-allocate, write-back semantics (one-chunk wrapper)."""
    sink = WritebackSink(config, keep_mask=True)
    sink.feed((addresses, is_write))
    return sink.finish()
