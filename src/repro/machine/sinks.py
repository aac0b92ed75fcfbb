"""Streaming trace sinks: the fusion protocol of the machine model.

Historically every machine component made its own pass over a fully
materialized trace, so a run's peak memory grew with its event count and
the trace was walked once per component. The streaming architecture fuses
the consumers instead: the executor flushes encoded events in bounded
NumPy chunks, and every component is a **sink** that folds each chunk into
persistent state. One pass, bounded memory — the trace itself never
exists as a whole object. The sinks are also the only machine model: the
materialized path (:func:`~repro.machine.perfcounters.measure` on a
``RunResult`` with a trace) feeds the same sinks the whole trace as one
chunk per stream.

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
:func:`check_addresses` (or :func:`check_accesses`), and every branch
predictor sink with :func:`check_codes`, so a 2-D or negative chunk is a
typed :class:`~repro.errors.MachineError` whichever model receives it.

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
    "check_addresses",
    "check_accesses",
    "check_codes",
]


def _nonnegative_1d(values: Any, what: str) -> np.ndarray:
    values = np.asarray(values)
    if values.ndim != 1:
        raise MachineError(f"{what} must be a 1-D array")
    values = values.astype(np.int64, copy=False)
    if len(values) and values.min() < 0:
        raise MachineError(f"{what} must be non-negative")
    return values


def check_addresses(addresses: Any) -> np.ndarray:
    """*addresses* as a 1-D ``int64`` array of byte addresses.

    Raises :class:`~repro.errors.MachineError` if it is not 1-D or holds a
    negative address.
    """
    return _nonnegative_1d(addresses, "addresses")


def check_codes(codes: Any) -> np.ndarray:
    """*codes* as a 1-D ``int64`` array of encoded trace events.

    Raises :class:`~repro.errors.MachineError` if it is not 1-D or holds a
    negative code (every encoding in :mod:`repro.exec.events` is
    non-negative).
    """
    return _nonnegative_1d(codes, "event codes")


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
