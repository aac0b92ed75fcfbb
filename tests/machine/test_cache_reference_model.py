"""Cross-check the production cache simulators against oblivious
reference implementations on random traces and geometries."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, strategies as st

import repro
from repro.machine.cache import CacheConfig, simulate_cache
from repro.machine.oracles import simulate_writeback_reference
from repro.machine.writeback import WritebackSink


def reference_lru(config: CacheConfig, addresses) -> list[bool]:
    """Deliberately naive set-associative LRU: per-set list of (tag, last
    used timestamp), linear scans, no move-to-front tricks."""
    nsets = config.num_sets
    sets: list[list[list]] = [[] for _ in range(nsets)]
    out = []
    for time, addr in enumerate(addresses):
        line = int(addr) >> config.line_shift
        s = sets[line % nsets]
        found = None
        for entry in s:
            if entry[0] == line:
                found = entry
                break
        if found is not None:
            found[1] = time
            out.append(False)
            continue
        out.append(True)
        if len(s) >= config.assoc:
            victim = min(s, key=lambda e: e[1])
            s.remove(victim)
        s.append([line, time])
    return out


@st.composite
def geometry(draw):
    line = draw(st.sampled_from([8, 16, 32]))
    assoc = draw(st.sampled_from([1, 2, 3, 4, 8]))
    nsets = draw(st.sampled_from([1, 2, 4, 8]))
    return CacheConfig("L", line * assoc * nsets, line, assoc)


@given(
    geometry(),
    st.lists(st.integers(0, 255), min_size=1, max_size=300),
)
def test_simulator_matches_reference(config, track):
    addrs = np.array(track, dtype=np.int64) * 8
    fast = simulate_cache(config, addrs).tolist()
    slow = reference_lru(config, addrs)
    assert fast == slow


@given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
def test_writeback_misses_match_reference(track):
    from repro.machine.writeback import simulate_writeback

    config = CacheConfig("L", 256, 16, 2)
    addrs = np.array(track, dtype=np.int64) * 8
    writes = np.zeros(len(addrs))
    wb = simulate_writeback(config, addrs, writes)
    slow = reference_lru(config, addrs)
    assert wb.misses.tolist() == slow


@given(st.data())
def test_writeback_matches_walk_on_random_geometry_writes_and_chunks(data):
    assoc = data.draw(st.integers(1, 8))
    nsets = data.draw(st.sampled_from([1, 2, 3, 5, 8, 16]))
    config = CacheConfig("L", 16 * assoc * nsets, 16, assoc)
    track = data.draw(st.lists(st.integers(0, 8 * assoc * nsets), max_size=300))
    addrs = np.array(track, dtype=np.int64) * 8
    writes = np.array(
        data.draw(st.lists(st.booleans(), min_size=len(track), max_size=len(track))),
        dtype=bool,
    )
    cuts = sorted(data.draw(st.lists(st.integers(0, len(track)), max_size=5)))
    sink = WritebackSink(config, keep_mask=True)
    bounds = [0, *cuts, len(track)]
    for lo, hi in zip(bounds, bounds[1:]):
        sink.feed((addrs[lo:hi], writes[lo:hi]))
    got = sink.finish()
    ref = simulate_writeback_reference(config, addrs, writes)
    assert np.array_equal(got.misses, ref.misses)
    assert got.miss_count == ref.miss_count
    assert got.writebacks == ref.writebacks
    assert got.dirty_at_end == ref.dirty_at_end


def test_oracles_stay_out_of_the_production_import_graph():
    code = (
        "import sys, repro.experiments.runner; "
        "print('repro.machine.oracles' in sys.modules)"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "False"
