"""Streaming trace sinks: the fusion protocol of the machine model.

Historically every machine component made its own pass over a fully
materialized trace, so a run's peak memory grew with its event count and
the trace was walked once per component. The streaming architecture fuses
the consumers instead: the executor flushes encoded events in bounded
NumPy chunks, and every component is a **sink** that folds each chunk into
persistent state. One pass, bounded memory — the trace itself never
exists as a whole object.

The protocol is deliberately tiny::

    class TraceSink(Protocol):
        def feed(self, chunk): ...      # fold one chunk into state
        def finish(self): ...           # return the accumulated result

Chunk types are stream-specific (duck-typed, per sink class):

- **encoded event chunks** — 1-D ``int64`` arrays straight from the
  executor (see :mod:`repro.exec.events` for the encodings). Consumed by
  :class:`~repro.machine.perfcounters.MemoryPipelineSink`, branch
  predictor sinks, and :class:`~repro.exec.tracestats.ArrayStatsSink`.
- **address chunks** — 1-D ``int64`` byte-address arrays. Consumed by
  :class:`~repro.machine.cache.CacheSink`,
  :class:`~repro.machine.hierarchy.HierarchySink`,
  :class:`~repro.machine.tlb.TLBSink` and
  :class:`~repro.machine.prefetch.PrefetchSink`.
- **access chunks** — ``(addresses, is_write)`` pairs. Consumed by
  :class:`~repro.machine.registers.RegisterFilterSink` and
  :class:`~repro.machine.writeback.WritebackSink`.

Every address-consuming sink validates its chunk with
:func:`check_addresses` (or :func:`check_accesses`), so a 2-D or negative
address chunk is a typed :class:`~repro.errors.MachineError` whichever
model receives it.

Sinks must be chunking-invariant: feeding one big chunk or many small ones
in the same order yields bit-identical results (the equivalence tests
exercise exactly this property).
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.errors import MachineError
from repro.exec.events import DEFAULT_CHUNK_EVENTS

__all__ = [
    "DEFAULT_CHUNK_EVENTS",
    "TraceSink",
    "MaterializeSink",
    "FanoutSink",
    "CountSink",
    "check_addresses",
    "check_accesses",
]


def check_addresses(addresses: Any) -> np.ndarray:
    """*addresses* as a 1-D ``int64`` array of byte addresses.

    Raises :class:`~repro.errors.MachineError` if it is not 1-D or holds a
    negative address.
    """
    addresses = np.asarray(addresses)
    if addresses.ndim != 1:
        raise MachineError("addresses must be a 1-D array")
    addresses = addresses.astype(np.int64, copy=False)
    if len(addresses) and addresses.min() < 0:
        raise MachineError("addresses must be non-negative")
    return addresses


def check_accesses(chunk: tuple[Any, Any]) -> tuple[np.ndarray, np.ndarray]:
    """An ``(addresses, is_write)`` chunk as checked addresses and a boolean
    write mask of the same length (:class:`~repro.errors.MachineError` if not)."""
    addresses, is_write = chunk
    addresses = check_addresses(addresses)
    is_write = np.asarray(is_write)
    if is_write.ndim != 1 or len(is_write) != len(addresses):
        raise MachineError(
            f"{len(addresses)} addresses but is_write has shape {is_write.shape}"
        )
    return addresses, is_write.astype(bool, copy=False)


@runtime_checkable
class TraceSink(Protocol):
    """Anything that can consume a trace chunk-by-chunk."""

    def feed(self, chunk: Any) -> Any:
        """Fold one chunk into internal state.

        May return a per-chunk value (e.g. a miss mask) for sinks that are
        chained inside a fused pipeline; standalone callers ignore it.
        """
        ...

    def finish(self) -> Any:
        """Return the accumulated result of the whole stream."""
        ...


class MaterializeSink:
    """Collects encoded event chunks back into one array.

    The debugging escape hatch of the streaming architecture
    (``trace_mode="materialize"``): everything downstream sees the exact
    full-trace array the pre-streaming executor produced.
    """

    def __init__(self, dtype=np.int64):
        self._dtype = dtype
        self._chunks: list[np.ndarray] = []

    def feed(self, chunk: np.ndarray) -> None:
        """Keep a copy of the chunk (the producer may reuse its buffer)."""
        self._chunks.append(np.asarray(chunk, dtype=self._dtype).copy())

    def finish(self) -> np.ndarray:
        """Concatenate every chunk in feed order."""
        if not self._chunks:
            return np.empty(0, dtype=self._dtype)
        return np.concatenate(self._chunks)


class FanoutSink:
    """Broadcasts each chunk to several sinks consuming the same stream."""

    def __init__(self, *sinks: TraceSink):
        self._sinks = sinks

    def feed(self, chunk: Any) -> None:
        """Feed every registered sink in order."""
        for sink in self._sinks:
            sink.feed(chunk)

    def finish(self) -> tuple[Any, ...]:
        """Finish every sink; results in registration order."""
        return tuple(sink.finish() for sink in self._sinks)


class CountSink:
    """Counts events without retaining them (cheap smoke-testing sink)."""

    def __init__(self) -> None:
        self.events = 0

    def feed(self, chunk: np.ndarray) -> None:
        """Add the chunk length."""
        self.events += len(chunk)

    def finish(self) -> int:
        """Total event count."""
        return self.events
