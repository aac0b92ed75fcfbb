"""Machine-model throughput: trace producer and trace consumers.

Two acceptance checks live here. The consumer side: on a 1M-event
address trace the vectorized :class:`~repro.machine.cache.CacheSink` must
replay at least 5x faster than the per-access reference simulator it
replaced. The producer side: the block codegen tier must *generate*
encoded events at least 5x faster than the scalar tier on a >= 1M-event
kernel. On a real Jacobi access stream the vectorized register window,
the set-associative cache replay (4- and 8-way) and the write-back replay
must equal the per-access walks they replaced (checked with timing
disabled too). On QR at N = 88, whose folds and guarded update loop need
the block tier's sum folds and masks, the block producer must match the
scalar tier event for event (always) and beat it at least 1.5x (timed
runs). The measured events/sec of every path land in
``extra_info`` so ``--benchmark-json`` output carries the evidence.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from repro.exec.compiled import CompiledProgram
from repro.experiments.runner import build_program
from repro.kernels.registry import get_kernel
from repro.machine.cache import CacheConfig, CacheSink
from repro.machine.hierarchy import HierarchySink
from repro.machine.layout import layout_for_program
from repro.machine.perfcounters import measure_streaming
from repro.machine.oracles import (
    filter_loads_reference,
    simulate_cache_reference,
    simulate_writeback_reference,
)
from repro.machine.registers import RegisterFilterSink
from repro.machine.sinks import DEFAULT_CHUNK_EVENTS
from repro.machine.writeback import WritebackSink

#: Trace length of the throughput comparison.
N_EVENTS = 1_000_000


def _trace(n: int = N_EVENTS) -> np.ndarray:
    """Synthetic strided walk with reuse (the kernels' access shape)."""
    rng = np.random.default_rng(7)
    base = np.cumsum(rng.integers(1, 4, size=n)) * 8
    return (base % (1 << 22)).astype(np.int64)


def _chunks(addrs: np.ndarray) -> list[np.ndarray]:
    return [
        addrs[i : i + DEFAULT_CHUNK_EVENTS]
        for i in range(0, len(addrs), DEFAULT_CHUNK_EVENTS)
    ]


def test_cache_replay_throughput(benchmark, sweep_config):
    """Streaming L1 replay is >= 5x the per-access reference."""
    addrs = _trace()
    l1 = sweep_config.machine.l1
    chunks = _chunks(addrs)

    def reference():
        return int(simulate_cache_reference(l1, addrs).sum())

    def streaming():
        sink = CacheSink(l1)
        for chunk in chunks:
            sink.feed(chunk)
        return sink.finish().misses

    t0 = time.perf_counter()
    ref_misses = reference()
    t_ref = time.perf_counter() - t0

    misses = benchmark.pedantic(streaming, rounds=1, iterations=1)
    t_vec = min(benchmark.stats.stats.data) if benchmark.stats else None
    assert misses == ref_misses
    info = {
        "events": len(addrs),
        "reference_events_per_sec": round(len(addrs) / t_ref),
        "reference_misses": ref_misses,
    }
    if t_vec:
        info["streaming_events_per_sec"] = round(len(addrs) / t_vec)
        info["speedup"] = round(t_ref / t_vec, 2)
    benchmark.extra_info.update(info)


class _CountSink:
    """Null consumer: counts events so the producer cost dominates."""

    def __init__(self) -> None:
        self.events = 0

    def feed(self, chunk: np.ndarray) -> None:
        self.events += len(chunk)


def test_producer_throughput_block_vs_scalar(benchmark):
    """Block-tier event generation is >= 5x the scalar tier on a
    >= 1M-event kernel (Jacobi: long unit-stride interior sweeps, the
    shape the block tier exists for)."""
    program, _, _ = build_program("jacobi", "seq")
    params = {"N": 280, "M": 6}
    inputs = get_kernel("jacobi").make_inputs(params, np.random.default_rng(7))

    def produce(mode: str) -> int:
        cp = CompiledProgram(program, trace=True, exec_mode=mode)
        sink = _CountSink()
        cp.run_streaming(params, dict(inputs), memory_sink=sink)
        return sink.events

    t0 = time.perf_counter()
    scalar_events = produce("scalar")
    t_scalar = time.perf_counter() - t0
    assert scalar_events >= 1_000_000

    block_events = benchmark.pedantic(
        lambda: produce("block"), rounds=1, iterations=1
    )
    t_block = min(benchmark.stats.stats.data) if benchmark.stats else None
    assert block_events == scalar_events
    info = {
        "events": scalar_events,
        "scalar_events_per_sec": round(scalar_events / t_scalar),
    }
    if t_block:
        info["block_events_per_sec"] = round(block_events / t_block)
        info["producer_speedup"] = round(t_scalar / t_block, 2)
    benchmark.extra_info.update(info)


class _DigestSink:
    """Digest and count of every event fed, in order (so independent of
    how the stream is chunked)."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.events = 0

    def feed(self, chunk: np.ndarray) -> None:
        self.digest.update(np.ascontiguousarray(chunk, dtype=np.int64).tobytes())
        self.events += len(chunk)


@pytest.mark.parametrize("variant", ["seq", "tiled"])
def test_qr_producer_block_vs_scalar(benchmark, variant):
    """QR's dot-product and norm folds and tiled QR's guarded update loop
    run on the block tier: at N = 88 the block producer emits the scalar
    tier's exact memory and branch streams, counters and arrays, with no
    guard-rejected entry, and (timed runs only) at least 1.5x faster."""
    program, _, _ = build_program("qr", variant)
    params = {"N": 88}
    inputs = get_kernel("qr").make_inputs(params, np.random.default_rng(7))

    def produce(mode: str):
        cp = CompiledProgram(program, trace=True, exec_mode=mode)
        memory, branch = _DigestSink(), _DigestSink()
        result = cp.run_streaming(
            params, dict(inputs), memory_sink=memory, branch_sink=branch
        )
        return cp, memory, branch, result

    _, mem_s, bra_s, res_s = produce("scalar")
    cp, mem_b, bra_b, res_b = benchmark.pedantic(
        lambda: produce("block"), rounds=3, iterations=1
    )
    t_block = min(benchmark.stats.stats.data) if benchmark.stats else None
    t_scalar = min(_timed(lambda: produce("scalar")) for _ in range(3)) if t_block else None
    assert mem_b.digest.digest() == mem_s.digest.digest()
    assert bra_b.digest.digest() == bra_s.digest.digest()
    assert (mem_b.events, bra_b.events) == (mem_s.events, bra_s.events)
    assert res_b.counters == res_s.counters
    for name in res_s.arrays:
        assert np.array_equal(res_b.arrays[name], res_s.arrays[name]), name
    assert cp.fallbacks.guard_rejected == 0
    info = {"memory_events": mem_s.events, "branch_events": bra_s.events}
    if t_block:
        info["scalar_seconds"] = round(t_scalar, 4)
        info["block_seconds"] = round(t_block, 4)
        info["producer_speedup"] = round(t_scalar / t_block, 2)
    benchmark.extra_info.update(info)
    if t_block:
        # Best of three per tier. With the folds and the guarded loop
        # left on the scalar tier (over ndarray storage), these ratios
        # were about 1.2x (seq) and 0.7x (tiled).
        assert t_scalar / t_block >= 1.5, info


def test_telemetry_overhead(benchmark, sweep_config):
    """Enabled telemetry costs < 3% of producer throughput (the PR 4
    observability contract): the fully-instrumented streaming path
    (``exec.run`` span, per-sink wrappers, fallback counters) on the same
    >= 1M-event Jacobi run stays within 3% of the uninstrumented time,
    and the PerfReport is bit-identical either way."""
    from repro import telemetry

    program, _, _ = build_program("jacobi", "seq")
    params = {"N": 280, "M": 6}
    inputs = get_kernel("jacobi").make_inputs(params, np.random.default_rng(7))
    machine = sweep_config.machine
    cp = CompiledProgram(program, trace=True)

    def run_once():
        _, report = measure_streaming(cp, params, machine, dict(inputs))
        return report

    telemetry.disable()
    telemetry.reset()
    report_off = run_once()  # warm every cache/JIT-ish path first

    # Interleave disabled/enabled rounds so machine drift hits both sides
    # equally — consecutive identical runs of this workload vary by more
    # than the 3% budget, so a sequential A/A/A then B/B/B comparison
    # would flake on noise alone. Best-of-rounds on each side.
    t_off, t_on = [], []
    try:
        for _ in range(5):
            telemetry.disable()
            t_off.append(_timed(run_once))
            telemetry.enable()
            telemetry.reset()
            t_on.append(_timed(run_once))
        telemetry.enable()
        telemetry.reset()
        report_on = benchmark.pedantic(run_once, rounds=1, iterations=1)
        timed = bool(benchmark.stats)
    finally:
        telemetry.disable()
        telemetry.reset()

    assert report_on == report_off  # telemetry is a pure observer
    benchmark.extra_info["disabled_seconds"] = round(min(t_off), 6)
    benchmark.extra_info["enabled_seconds"] = round(min(t_on), 6)
    overhead = min(t_on) / min(t_off) - 1
    benchmark.extra_info["telemetry_overhead_pct"] = round(overhead * 100, 2)
    if timed:
        assert overhead < 0.03, f"telemetry overhead {overhead:.1%} >= 3%"


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_hierarchy_replay_throughput(benchmark, sweep_config):
    """Fused L1 -> L2 streaming replay matches the two-pass totals."""
    addrs = _trace()
    machine = sweep_config.machine
    chunks = _chunks(addrs)

    def streaming():
        sink = HierarchySink(machine.l1, machine.l2)
        for chunk in chunks:
            sink.feed(chunk)
        res = sink.finish()
        return res.l1_misses, res.l2_misses

    l1_misses, l2_misses = benchmark.pedantic(streaming, rounds=1, iterations=1)
    assert int(simulate_cache_reference(machine.l1, addrs).sum()) == l1_misses
    benchmark.extra_info.update(
        {"events": len(addrs), "l1_misses": l1_misses, "l2_misses": l2_misses}
    )


def _jacobi_tiled_stream(sweep_config, n: int = 88) -> tuple[np.ndarray, np.ndarray]:
    """Byte addresses and write flags of tiled Jacobi at size *n* (the
    register-reuse showcase)."""
    program, _, _ = build_program("jacobi", "tiled", tile=sweep_config.tile_for(n))
    params = {"N": n, "M": sweep_config.jacobi_m}
    inputs = get_kernel("jacobi").make_inputs(params, np.random.default_rng(7))
    run = CompiledProgram(program, trace=True).run(params, inputs)
    aid, lin, rw = run.trace.memory_events()
    id_to_name = {v: k for k, v in run.array_ids.items()}
    addrs = layout_for_program(program, params).addresses(aid, lin, id_to_name)
    return addrs, rw


def test_register_window_throughput(benchmark, sweep_config):
    """The vectorized register window equals the per-access dict walk on
    a real access stream (Jacobi tiled, the register-reuse showcase), fed
    in design-size chunks; with timing on, it is also faster."""
    addrs, rw = _jacobi_tiled_stream(sweep_config)
    capacity = sweep_config.machine.registers
    chunks = [
        (addrs[i : i + DEFAULT_CHUNK_EVENTS], rw[i : i + DEFAULT_CHUNK_EVENTS])
        for i in range(0, len(addrs), DEFAULT_CHUNK_EVENTS)
    ]

    def streaming():
        sink = RegisterFilterSink(capacity)
        keep = np.concatenate([sink.feed(chunk) for chunk in chunks])
        return keep, sink.finish().load_hits

    t0 = time.perf_counter()
    ref = filter_loads_reference(addrs, rw, capacity)
    t_ref = time.perf_counter() - t0

    keep, hits = benchmark.pedantic(streaming, rounds=1, iterations=1)
    t_vec = min(benchmark.stats.stats.data) if benchmark.stats else None
    assert np.array_equal(keep, ref.to_memory)
    assert hits == ref.load_hits > 0
    info = {
        "events": len(addrs),
        "load_hits": hits,
        "reference_events_per_sec": round(len(addrs) / t_ref),
    }
    if t_vec:
        info["streaming_events_per_sec"] = round(len(addrs) / t_vec)
        info["speedup"] = round(t_ref / t_vec, 2)
        assert t_vec < t_ref
    benchmark.extra_info.update(info)


def test_set_associative_and_writeback_replay(benchmark, sweep_config):
    """On the same real stream in design-size chunks, the set-grouped LRU
    replay equals the per-access walks: :class:`CacheSink` at 4 and 8 ways
    (the scaled L1's size and line) and :class:`WritebackSink` on the
    scaled L1."""
    addrs, rw = _jacobi_tiled_stream(sweep_config)
    l1 = sweep_config.machine.l1
    bounds = range(0, len(addrs), DEFAULT_CHUNK_EVENTS)
    chunks = [slice(i, i + DEFAULT_CHUNK_EVENTS) for i in bounds]
    info = {"events": len(addrs)}
    for assoc in (4, 8):
        config = CacheConfig(f"L1-a{assoc}", l1.size_bytes, l1.line_bytes, assoc)
        sink = CacheSink(config, keep_mask=True)
        for chunk in chunks:
            sink.feed(addrs[chunk])
        mask = sink.finish().miss_mask
        assert np.array_equal(mask, simulate_cache_reference(config, addrs))
        info[f"l1_a{assoc}_misses"] = int(mask.sum())

    def writeback():
        sink = WritebackSink(l1, keep_mask=True)
        for chunk in chunks:
            sink.feed((addrs[chunk], rw[chunk]))
        return sink.finish()

    got = benchmark.pedantic(writeback, rounds=1, iterations=1)
    ref = simulate_writeback_reference(l1, addrs, rw)
    assert np.array_equal(got.misses, ref.misses)
    assert (got.writebacks, got.dirty_at_end) == (ref.writebacks, ref.dirty_at_end)
    assert got.writebacks > 0
    info["writebacks"] = got.writebacks
    info["dirty_at_end"] = got.dirty_at_end
    benchmark.extra_info.update(info)
