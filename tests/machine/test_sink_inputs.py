"""Every address- or code-consuming sink rejects malformed chunks with a
typed error.

The sinks share two checks (:func:`repro.machine.sinks.check_addresses`,
wrapped by :func:`~repro.machine.sinks.check_accesses` for
``(addresses, is_write)`` chunks, and :func:`~repro.machine.sinks.check_codes`
for encoded branch events): a chunk must be 1-D and non-negative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MachineError
from repro.machine.branch import StaticTakenPredictorSink, TwoBitPredictorSink
from repro.machine.cache import CacheConfig, CacheSink
from repro.machine.prefetch import PrefetchSink
from repro.machine.registers import RegisterFilterSink
from repro.machine.tlb import TLBConfig, TLBSink
from repro.machine.writeback import WritebackSink

CACHE = CacheConfig("L", 512, 32, 4)

BAD_ADDRESSES = {
    "2-D": np.zeros((2, 2), dtype=np.int64),
    "negative": np.array([0, -8, 16], dtype=np.int64),
}


@pytest.fixture(params=sorted(BAD_ADDRESSES))
def bad(request):
    return BAD_ADDRESSES[request.param]


def test_cache_sink(bad):
    with pytest.raises(MachineError):
        CacheSink(CACHE).feed(bad)


def test_tlb_sink(bad):
    with pytest.raises(MachineError):
        TLBSink(TLBConfig()).feed(bad)


def test_writeback_sink(bad):
    with pytest.raises(MachineError):
        WritebackSink(CACHE).feed((bad, np.zeros(bad.shape, dtype=bool)))


def test_prefetch_sink(bad):
    with pytest.raises(MachineError):
        PrefetchSink(CACHE).feed(bad)


def test_register_filter_sink(bad):
    with pytest.raises(MachineError):
        RegisterFilterSink().feed((bad, np.zeros(bad.shape, dtype=bool)))


@pytest.mark.parametrize("sink_cls", [TwoBitPredictorSink, StaticTakenPredictorSink])
def test_branch_sinks(bad, sink_cls):
    # A 2-D chunk used to be counted element-wise by the static sink (and
    # a bare TypeError in the 2-bit one); a negative code decoded to a
    # negative site.
    with pytest.raises(MachineError):
        sink_cls().feed(bad)
