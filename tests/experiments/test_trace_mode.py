"""``trace_mode`` / ``REPRO_TRACE_MODE``: the runner's debugging path.

``"materialize"`` runs the program into one full trace and feeds it to the
same sinks as ``"stream"``, one chunk per stream; the reports must be
equal. Disk cache is off (conftest) and memos are cleared before each
measurement, so every report is computed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import runner
from repro.experiments.sweep import default_config

POINTS = [
    # block-heavy: every Jacobi-seq event comes from block-tier loop entries
    ("jacobi", 24, "block"),
    # scalar-heavy: at N=12 every LU trip is below the block floor
    ("lu", 12, "scalar"),
]


def _measure(kernel, n, **kwargs):
    runner.clear_caches()
    config = replace(default_config(quick=True), sizes=(n,))
    return runner.measure_variant(kernel, "seq", n, config, **kwargs).report


def _no_streaming(*args, **kwargs):
    raise AssertionError("the materialize path must not stream")


@pytest.mark.parametrize("kernel,n,tier", POINTS)
def test_materialize_equals_stream(kernel, n, tier, monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_MODE", raising=False)
    streamed = _measure(kernel, n)
    [engine] = runner._compiled.values()
    assert (engine.fallbacks.below_min_trip > 0) == (tier == "scalar")
    monkeypatch.setattr(runner, "measure_streaming", _no_streaming)
    assert _measure(kernel, n, trace_mode="materialize") == streamed
    monkeypatch.setenv("REPRO_TRACE_MODE", "materialize")
    assert _measure(kernel, n) == streamed


def test_bad_trace_mode_raises(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_MODE", "stream")
    with pytest.raises(ValueError, match="trace_mode"):
        _measure("lu", 12, trace_mode="chunked")
    monkeypatch.setenv("REPRO_TRACE_MODE", "chunked")
    with pytest.raises(ValueError, match="trace_mode"):
        _measure("lu", 12)


def test_bad_trace_mode_raises_on_a_memo_hit(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE_MODE", raising=False)
    config = replace(default_config(quick=True), sizes=(12,))
    runner.clear_caches()
    runner.measure_variant("lu", "seq", 12, config)
    with pytest.raises(ValueError, match="trace_mode"):
        runner.measure_variant("lu", "seq", 12, config, trace_mode="chunked")
