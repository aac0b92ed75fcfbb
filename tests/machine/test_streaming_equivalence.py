"""Streaming vs materialized equivalence: the refactor's core guarantee.

The streaming trace pipeline must be *bit-identical* to the materialized
path — same miss counts, same counters, same branch stats, on any chunking.
These tests pin that down three ways:

- randomized traces through every sink, chunked at random boundaries,
  against the original whole-trace implementations (the 2-bit
  predictor against its grouped-by-site oracle, under hypothesis);
- every registered kernel recipe at small N, end-to-end through
  ``measure`` vs ``measure_streaming``;
- Mattson-inclusion cross-check: the vectorized ``simulate_cache`` at
  full associativity must agree with ``stack_distances``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exec.compiled import CompiledProgram
from repro.experiments.runner import build_program
from repro.kernels.registry import ALL_KERNELS, get_kernel, variants_for
from repro.machine.branch import StaticTakenPredictorSink, TwoBitPredictorSink
from repro.machine.cache import (
    CacheConfig,
    CacheSink,
    simulate_cache,
    stack_distances,
)
from repro.machine.configs import octane2_scaled
from repro.machine.hierarchy import HierarchySink, simulate_hierarchy
from repro.machine.oracles import (
    simulate_cache_reference,
    stack_distances_reference,
    two_bit_predictor_reference,
)
from repro.machine.perfcounters import measure, measure_streaming
from repro.machine.registers import RegisterFilterSink, filter_loads
from repro.machine.tlb import TLBConfig, TLBSink, simulate_tlb
from repro.machine.writeback import WritebackSink, simulate_writeback


def random_chunks(rng, array, *extra):
    """Split aligned arrays at identical random boundaries."""
    n = len(array)
    cuts = np.sort(rng.integers(0, n + 1, size=rng.integers(0, 6)))
    bounds = [0, *cuts.tolist(), n]
    for lo, hi in zip(bounds, bounds[1:]):
        yield (array[lo:hi], *(e[lo:hi] for e in extra))


def lru_state(cfg: CacheConfig, addrs: np.ndarray) -> np.ndarray:
    """Resident lines per set after *addrs* from a cold cache, MRU first:
    the last ``assoc`` distinct lines mapping to each set."""
    state = np.full((cfg.num_sets, cfg.assoc), -1, dtype=np.int64)
    filled = [0] * cfg.num_sets
    seen: set[int] = set()
    for line in reversed((addrs >> cfg.line_shift).tolist()):
        if line in seen:
            continue
        seen.add(line)
        q = line % cfg.num_sets
        if filled[q] < cfg.assoc:
            state[q, filled[q]] = line
            filled[q] += 1
    return state


def feed_checking_state(cfg, chunks):
    """Feed *chunks* to a ``CacheSink``, checking its carried state after
    each one; returns the sink's result, miss mask included."""
    sink = CacheSink(cfg, keep_mask=True)
    seen = np.zeros(0, dtype=np.int64)
    for chunk in chunks:
        sink.feed(chunk)
        seen = np.concatenate([seen, chunk])
        assert np.array_equal(sink._state, lru_state(cfg, seen))
    return sink.finish()


class TestCacheSinkAgainstOracle:
    @pytest.mark.parametrize("assoc", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("nsets", [1, 4, 32, 100])
    def test_randomized_traces(self, assoc, nsets):
        rng = np.random.default_rng(nsets * 10 + assoc)
        cfg = CacheConfig("t", nsets * assoc * 32, 32, assoc)
        for _ in range(15):
            n = int(rng.integers(1, 600))
            addrs = rng.integers(0, 64 * nsets * 32, size=n, dtype=np.int64)
            ref = simulate_cache_reference(cfg, addrs)
            assert np.array_equal(simulate_cache(cfg, addrs), ref)
            chunks = [c for (c,) in random_chunks(rng, addrs) if len(c)]
            res = feed_checking_state(cfg, chunks)
            assert res.misses == int(ref.sum())
            assert np.array_equal(res.miss_mask, ref)

    def test_spread_and_narrow_sets(self):
        # Chunks spread over many sets, concentrated on a few, and both:
        # the few-set chunks hold long per-set runs, the many-set chunks
        # short ones. State is carried across the chunk cut.
        rng = np.random.default_rng(3)
        spread = rng.integers(0, 16 * 64 * 32, size=1200, dtype=np.int64)
        narrow = (rng.integers(0, 8, size=1200, dtype=np.int64) * 16 * 32)
        for assoc in (3, 4, 8):
            cfg = CacheConfig("t", 16 * assoc * 32, 32, assoc)
            for addrs in (spread, narrow, np.concatenate([spread, narrow])):
                ref = simulate_cache_reference(cfg, addrs)
                half = len(addrs) // 2
                res = feed_checking_state(cfg, [addrs[:half], addrs[half:]])
                assert res.misses == int(ref.sum())
                assert np.array_equal(res.miss_mask, ref)


class TestMattsonInclusion:
    def test_fully_associative_matches_stack_distances(self):
        # A fully-associative LRU cache of capacity C hits exactly the
        # accesses with stack distance 0 <= d < C.
        rng = np.random.default_rng(11)
        addrs = rng.integers(0, 1 << 12, size=800, dtype=np.int64)
        line_shift = 5
        d = stack_distances(addrs, line_shift)
        for capacity in (1, 2, 4, 16):
            cfg = CacheConfig("fa", capacity * 32, 32, capacity)
            miss = simulate_cache(cfg, addrs)
            expected = (d < 0) | (d >= capacity)
            assert np.array_equal(miss, expected), capacity

    def test_fenwick_matches_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(1, 400))
            addrs = rng.integers(0, 1 << 13, size=n, dtype=np.int64)
            assert np.array_equal(
                stack_distances(addrs, 5), stack_distances_reference(addrs, 5)
            )


class TestSinkChunkingInvariance:
    def setup_method(self):
        self.rng = np.random.default_rng(21)
        n = 700
        self.addrs = self.rng.integers(0, 1 << 14, size=n, dtype=np.int64)
        self.writes = self.rng.integers(0, 2, size=n, dtype=np.int64)

    def test_hierarchy(self):
        l1 = CacheConfig("L1", 512, 32, 2)
        l2 = CacheConfig("L2", 4096, 64, 2)
        whole = simulate_hierarchy(l1, l2, self.addrs, keep_mask=True)
        sink = HierarchySink(l1, l2, keep_mask=True)
        for (chunk,) in random_chunks(self.rng, self.addrs):
            sink.feed(chunk)
        res = sink.finish()
        assert (res.l1_misses, res.l2_misses) == (whole.l1_misses, whole.l2_misses)
        assert np.array_equal(res.l1_miss_mask, whole.l1_miss_mask)

    def test_hierarchy_mask_opt_in(self):
        l1 = CacheConfig("L1", 512, 32, 2)
        l2 = CacheConfig("L2", 4096, 64, 2)
        assert simulate_hierarchy(l1, l2, self.addrs).l1_miss_mask is None
        assert (
            simulate_hierarchy(l1, l2, self.addrs, keep_mask=True).l1_miss_mask
            is not None
        )

    def test_tlb(self):
        cfg = TLBConfig(entries=8, page_bytes=4096)
        sink = TLBSink(cfg)
        for (chunk,) in random_chunks(self.rng, self.addrs):
            sink.feed(chunk)
        assert sink.finish() == simulate_tlb(cfg, self.addrs)

    def test_writeback(self):
        cfg = CacheConfig("L2", 4096, 64, 2)
        whole = simulate_writeback(cfg, self.addrs, self.writes)
        sink = WritebackSink(cfg, keep_mask=True)
        for chunk, w in random_chunks(self.rng, self.addrs, self.writes):
            sink.feed((chunk, w))
        res = sink.finish()
        assert res.miss_count == whole.miss_count
        assert res.writebacks == whole.writebacks
        assert res.dirty_at_end == whole.dirty_at_end
        assert np.array_equal(res.misses, whole.misses)

    def test_register_filter(self):
        whole = filter_loads(self.addrs, self.writes, capacity=8)
        sink = RegisterFilterSink(capacity=8)
        masks = [
            sink.feed((chunk, w))
            for chunk, w in random_chunks(self.rng, self.addrs, self.writes)
        ]
        assert np.array_equal(np.concatenate(masks), whole.to_memory)
        assert sink.finish().load_hits == whole.load_hits

    def test_static_taken_sink(self):
        sites = self.rng.integers(0, 5, size=400, dtype=np.int64)
        taken = self.rng.integers(0, 2, size=400, dtype=np.int64)
        sink = StaticTakenPredictorSink()
        for (chunk,) in random_chunks(self.rng, sites * 2 + taken):
            sink.feed(chunk)
        stats = sink.finish()
        assert (stats.resolved, stats.mispredicted) == (400, int((taken == 0).sum()))


@st.composite
def branch_trace(draw):
    """Site ids, taken bits and sorted chunk cuts of one branch trace."""
    sites = draw(st.integers(1, 40))
    n = draw(st.integers(0, 300))
    sid = draw(st.lists(st.integers(0, sites - 1), min_size=n, max_size=n))
    taken = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    return np.asarray(sid, dtype=np.int64), np.asarray(taken, dtype=np.int64), cuts


@given(branch_trace())
def test_two_bit_sink_matches_oracle(trace):
    # The sink interleaves sites in trace order, the oracle replays them
    # grouped by site; any chunking of the stream gives the same stats.
    sid, taken, cuts = trace
    codes = sid * 2 + taken
    sink = TwoBitPredictorSink()
    for lo, hi in zip([0, *cuts], [*cuts, len(codes)]):
        sink.feed(codes[lo:hi])
    assert sink.finish() == two_bit_predictor_reference(sid, taken)


def _measure_both(kernel, variant, n=8):
    tile = 4 if variant in ("tiled", "tiled_sunk") else None
    program, _, _ = build_program(kernel, variant, tile=tile)
    mod = get_kernel(kernel)
    params = {"N": n}
    if "M" in mod.PARAMS:
        params["M"] = 4
    inputs = mod.make_inputs(params, np.random.default_rng(0))
    cp = CompiledProgram(program, trace=True)
    machine = octane2_scaled()
    materialized = measure(cp.run(params, inputs), program, params, machine)
    # A deliberately odd chunk size so runs straddle chunk boundaries.
    _, streamed = measure_streaming(
        cp, params, machine, inputs, chunk_events=97
    )
    return materialized, streamed


@pytest.mark.parametrize(
    "kernel,variant",
    [
        (k, v)
        for k in ALL_KERNELS
        for v in variants_for(k)
        # QR's *unfixed* fused program is broken by design (the paper's
        # fusion-preventing dependence) and fails at runtime.
        if (k, v) != ("qr", "fused")
    ],
)
def test_every_recipe_streams_bit_identical(kernel, variant):
    materialized, streamed = _measure_both(kernel, variant)
    assert materialized.as_dict() == streamed.as_dict()


class _ChunkRecorder:
    """Keeps a copy of every chunk it is fed."""

    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []

    def feed(self, chunk: np.ndarray) -> None:
        self.chunks.append(np.array(chunk, copy=True))

    def stream(self) -> np.ndarray:
        """Every event fed, in feed order."""
        return np.concatenate(self.chunks) if self.chunks else np.empty(0, np.int64)


def test_streaming_executor_reproduces_trace():
    # The chunked executor must emit the exact same encoded event stream
    # as the materializing run.
    program, _, _ = build_program("cholesky", "seq")
    mod = get_kernel("cholesky")
    params = {"N": 10}
    inputs = mod.make_inputs(params, np.random.default_rng(5))
    cp = CompiledProgram(program, trace=True)
    run = cp.run(params, inputs)
    mem_sink, bra_sink = _ChunkRecorder(), _ChunkRecorder()
    streamed = cp.run_streaming(
        params, inputs, memory_sink=mem_sink, branch_sink=bra_sink, chunk_events=64
    )
    assert streamed.trace is None
    assert np.array_equal(mem_sink.stream(), run.trace.memory)
    assert np.array_equal(bra_sink.stream(), run.trace.branches)
    assert streamed.counters.as_dict() == run.counters.as_dict()
    for name in run.arrays:
        assert np.array_equal(streamed.arrays[name], run.arrays[name])


@pytest.mark.parametrize(
    "kernel,variant,n,tile",
    [
        # block-heavy: every event comes from block-tier loop entries
        # (tiled Jacobi keeps its time loop innermost, a scalar-tier loop)
        ("jacobi", "seq", 24, None),
        # scalar-heavy: at N=12 every LU trip is below the block floor
        ("lu", "seq", 12, None),
    ],
)
@pytest.mark.parametrize("chunk_events", [1, 97, 65536])
def test_streaming_chunks_are_full_size(kernel, variant, n, tile, chunk_events):
    # Memory chunks are coalesced across loop entries and tiers: every
    # chunk but the last holds exactly `chunk_events` events, so a run
    # feeds ceil(events / chunk_events) chunks, in program order.
    program, _, _ = build_program(kernel, variant, tile=tile)
    mod = get_kernel(kernel)
    params = {"N": n}
    if "M" in mod.PARAMS:
        params["M"] = 4
    inputs = mod.make_inputs(params, np.random.default_rng(3))
    cp = CompiledProgram(program, trace=True)
    trace = cp.run(params, inputs).trace
    memory, branches = _ChunkRecorder(), _ChunkRecorder()
    cp.run_streaming(
        params,
        inputs,
        memory_sink=memory,
        branch_sink=branches,
        chunk_events=chunk_events,
    )
    events = len(trace.memory)
    assert len(memory.chunks) == -(-events // chunk_events)
    assert all(len(c) == chunk_events for c in memory.chunks[:-1])
    assert 0 < len(memory.chunks[-1]) <= chunk_events
    assert np.array_equal(memory.stream(), trace.memory)
    assert np.array_equal(branches.stream(), trace.branches)


def test_streaming_chunks_every_size():
    # Every chunk size from 1 to past the run's largest block matrix (36
    # events), so the queue's fill level hits each remainder before a
    # block arrives. With a trip floor of 2, QR at N=10 interleaves 52
    # block-tier matrices with scalar-tier events (1268 and 1532 events).
    program, _, _ = build_program("qr", "seq")
    params = {"N": 10}
    inputs = get_kernel("qr").make_inputs(params, np.random.default_rng(4))
    cp = CompiledProgram(program, trace=True, min_block_trip=2)
    memory_trace = cp.run(params, inputs).trace.memory
    for chunk_events in range(1, 80):
        sink = _ChunkRecorder()
        cp.run_streaming(params, inputs, memory_sink=sink, chunk_events=chunk_events)
        sizes = [len(c) for c in sink.chunks]
        assert sizes[:-1] == [chunk_events] * (len(sizes) - 1), chunk_events
        assert np.array_equal(np.concatenate(sink.chunks), memory_trace)
