"""The vectorized LRU window against its oracles.

:class:`RegisterFilterSink` and :class:`TLBSink` replay chunks through
:func:`repro.machine.window.lru_window`. These tests pin it to two
independent definitions of a fully-associative LRU window:

- the per-access ``OrderedDict`` walk it replaced
  (:func:`filter_loads_reference`);
- the Mattson rule: an access hits iff ``0 <= stack distance < capacity``
  (:func:`stack_distances`, element or page granularity).

Traces include long low-distinct stretches, where neither the raw gap nor
the windowed distinct-count bounds decide and the exact count must.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import MachineError
from repro.machine import window
from repro.machine.cache import stack_distances
from repro.machine.oracles import filter_loads_reference
from repro.machine.registers import ELEMENT_SHIFT, RegisterFilterSink, filter_loads
from repro.machine.tlb import TLBConfig, TLBSink, simulate_tlb

CAPACITIES = [0, 1, 31, 32, 33, 64]


@st.composite
def random_keys(draw):
    alphabet = draw(st.integers(1, 120))
    return draw(st.lists(st.integers(0, alphabet - 1), max_size=400))


@st.composite
def low_distinct_keys(draw):
    """Probe keys revisited across long cycles over few distinct keys.

    Cycle widths cluster around the capacities, so probe distances land on
    either side of them while their raw gaps exceed every bound window.
    """
    keys: list[int] = []
    for _ in range(draw(st.integers(1, 6))):
        keys.append(draw(st.integers(1000, 1003)))
        base = draw(st.integers(0, 200))
        distinct = draw(
            st.one_of(st.sampled_from([30, 31, 32, 33, 34, 63, 64, 65]), st.integers(1, 70))
        )
        length = draw(st.integers(1, 300))
        keys.extend(base + i % distinct for i in range(length))
    return keys


def access_stream(draw, keys: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Element keys -> byte addresses (random in-element offset) + writes."""
    n = len(keys)
    offsets = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    addresses = (np.asarray(keys, dtype=np.int64) << ELEMENT_SHIFT) + np.asarray(
        offsets, dtype=np.int64
    )
    return addresses, np.asarray(writes, dtype=bool)


@st.composite
def accesses(draw):
    keys = draw(st.one_of(random_keys(), low_distinct_keys()))
    return access_stream(draw, keys)


def mattson_keep(addresses: np.ndarray, is_write: np.ndarray, capacity: int):
    d = stack_distances(addresses, ELEMENT_SHIFT)
    return is_write | ~((d >= 0) & (d < capacity))


def feed_chunks(capacity, addresses, is_write, cuts):
    sink = RegisterFilterSink(capacity)
    bounds = [0, *sorted(cuts), len(addresses)]
    masks = [
        sink.feed((addresses[lo:hi], is_write[lo:hi]))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return np.concatenate(masks), sink.finish().load_hits


class TestRegisterFilterSink:
    @pytest.mark.parametrize("capacity", CAPACITIES)
    @given(stream=accesses(), data=st.data())
    def test_matches_dict_walk_and_mattson(self, capacity, stream, data):
        addresses, is_write = stream
        n = len(addresses)
        cuts = data.draw(st.lists(st.integers(0, n), max_size=5))
        keep, hits = feed_chunks(capacity, addresses, is_write, cuts)
        ref = filter_loads_reference(addresses, is_write, capacity)
        assert np.array_equal(keep, ref.to_memory)
        assert hits == ref.load_hits
        assert np.array_equal(keep, mattson_keep(addresses, is_write, capacity))

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_every_split_offset(self, capacity):
        rng = np.random.default_rng(capacity)
        keys = np.concatenate(
            [rng.integers(0, 40, 30), np.arange(45), np.tile(np.arange(3), 20)]
        )
        addresses = keys.astype(np.int64) << ELEMENT_SHIFT
        is_write = rng.random(len(keys)) < 0.2
        ref = filter_loads_reference(addresses, is_write, capacity)
        for cut in range(len(keys) + 1):
            keep, hits = feed_chunks(capacity, addresses, is_write, [cut])
            assert np.array_equal(keep, ref.to_memory), cut
            assert hits == ref.load_hits

    @pytest.mark.parametrize("capacity", CAPACITIES)
    def test_distance_boundaries(self, capacity):
        # x, then `length` accesses cycling over `distinct` other keys, then
        # x: x's distance is `distinct` (for length >= distinct), probed on
        # both sides of the capacity and of every bound window.
        for distinct in range(max(capacity - 2, 1), capacity + 3):
            for length in (distinct, 63, 64, 65, 127, 128, 129, 300):
                if length < distinct:
                    continue
                keys = np.concatenate([[10_000], np.arange(length) % distinct, [10_000]])
                addresses = keys.astype(np.int64) << ELEMENT_SHIFT
                reads = np.zeros(len(keys), dtype=bool)
                ref = filter_loads_reference(addresses, reads, capacity)
                keep = RegisterFilterSink(capacity).feed((addresses, reads))
                assert np.array_equal(keep, ref.to_memory), (distinct, length)
                assert keep[-1] == (distinct >= capacity)

    def test_exact_count_decides_low_distinct_gaps(self, monkeypatch):
        # x, a burst of 40 distinct keys, 300 accesses over 5 keys, x:
        # every bound window (<= 128 < gap) sees only 5 distinct keys, so
        # only the exact count can tell the true distance (45) is a miss.
        # Likewise x, 300 accesses over 5 keys, x is an exact-count hit.
        calls = []
        exact = window._exact_distinct

        def spy(prev, at):
            calls.append(len(at))
            return exact(prev, at)

        monkeypatch.setattr(window, "_exact_distinct", spy)
        cycle = 1000 + np.arange(300) % 5
        miss = np.concatenate([[7], 100 + np.arange(40), cycle, [7]])
        hit = np.concatenate([[7], cycle, [7]])
        for keys, expect_hit in ((miss, False), (hit, True)):
            addresses = keys.astype(np.int64) << ELEMENT_SHIFT
            reads = np.zeros(len(keys), dtype=bool)
            keep = RegisterFilterSink(32).feed((addresses, reads))
            assert keep[-1] == (not expect_hit)
            ref = filter_loads_reference(addresses, reads, 32)
            assert np.array_equal(keep, ref.to_memory)
        assert len(calls) == 2

    def test_exact_count_batches(self, monkeypatch):
        # Gathers are split into batches; results must not depend on it.
        monkeypatch.setattr(window, "EXACT_BATCH", 7)
        rng = np.random.default_rng(5)
        keys = np.concatenate(
            [np.tile(np.arange(4), 60), rng.integers(0, 200, 100)] * 3
        )
        addresses = keys.astype(np.int64) << ELEMENT_SHIFT
        reads = np.zeros(len(keys), dtype=bool)
        ref = filter_loads_reference(addresses, reads, 32)
        assert np.array_equal(filter_loads(addresses, reads, 32).to_memory, ref.to_memory)

    @pytest.mark.parametrize(
        "addresses,is_write",
        [
            (np.zeros(3, dtype=np.int64), np.zeros(2, dtype=bool)),
            (np.zeros(2, dtype=np.int64), np.zeros(3, dtype=bool)),
            (np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=bool)),
            (np.zeros(4, dtype=np.int64), np.zeros((2, 2), dtype=bool)),
        ],
    )
    def test_bad_input_is_typed_error(self, addresses, is_write):
        with pytest.raises(MachineError):
            RegisterFilterSink(32).feed((addresses, is_write))
        with pytest.raises(MachineError):
            filter_loads(addresses, is_write, 32)


class TestTLBWindow:
    @pytest.mark.parametrize("entries", [1, 2, 8, 64])
    @given(stream=accesses(), data=st.data())
    def test_matches_mattson(self, entries, stream, data):
        addresses, _ = stream
        cfg = TLBConfig(entries=entries, page_bytes=64)
        cuts = data.draw(st.lists(st.integers(0, len(addresses)), max_size=5))
        sink = TLBSink(cfg)
        bounds = [0, *sorted(cuts), len(addresses)]
        for lo, hi in zip(bounds, bounds[1:]):
            sink.feed(addresses[lo:hi])
        d = stack_distances(addresses, cfg.page_shift)
        expected = int(((d < 0) | (d >= entries)).sum())
        assert sink.finish() == expected
        assert simulate_tlb(cfg, addresses) == expected
