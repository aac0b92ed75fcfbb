"""Parallel sweep orchestration: worker pools, the shared disk store,
corrupt-entry tolerance, and byte-identical figure output regardless of
``REPRO_JOBS``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro import telemetry
from repro.experiments import figure5, runner
from repro.experiments.sweep import default_config, resolve_jobs
from repro.utils.caching import code_salt, disk_store


def _config(sizes=(8,)):
    return replace(default_config(quick=True), sizes=tuple(sizes))


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_and_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert resolve_jobs() == 4
        assert resolve_jobs(2) == 2  # explicit argument wins

    def test_floor_at_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1


def _no_measuring(monkeypatch):
    """Make recomputation impossible: a point must come from the store."""

    def boom(*a, **k):
        raise AssertionError("should have been served from the disk store")

    monkeypatch.setattr(runner, "measure_streaming", boom)
    monkeypatch.setattr(runner, "measure", boom)


class TestAtomicDiskCache:
    """Reports round-trip through the disk store; a torn, wrong-schema or
    unreadable entry is a counted miss that the sweep recomputes."""

    @pytest.fixture
    def report(self):
        """The real report, measured with the disk store off."""
        runner.clear_caches()
        return runner.measure_variant("cholesky", "seq", 8, _config()).report

    @pytest.fixture
    def store_path(self, report, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner.clear_caches()
        telemetry.reset()
        telemetry.enable()
        yield tmp_path / f"store-{code_salt()}.jsonl"
        telemetry.disable()
        telemetry.reset()

    def _plant(self, path, value, *, torn=False):
        key = runner._resolve_point("cholesky", "seq", 8, _config())[3]
        line = json.dumps({"k": f"point|{key}", "v": value})
        path.write_text((line[:-2] if torn else line) + "\n")

    def _remeasure(self, report):
        m = runner.measure_variant("cholesky", "seq", 8, _config())
        assert m.report == report
        return telemetry.counter_value("cache.corrupt")

    def test_store_load_roundtrip(self, report, store_path, monkeypatch):
        runner.measure_variant("cholesky", "seq", 8, _config())
        # One append-only file, no temp files beside it.
        assert [p.name for p in store_path.parent.iterdir()] == [store_path.name]
        runner.clear_caches()
        _no_measuring(monkeypatch)
        assert self._remeasure(report) == 0

    def test_load_tolerates_truncated_json(self, report, store_path):
        self._plant(store_path, {"total_cycles": 1}, torn=True)
        assert self._remeasure(report) == 1

    def test_load_tolerates_oserror(self, report, store_path):
        # A directory where the file should be: open() raises
        # IsADirectoryError (an OSError), which must mean "not cached",
        # not a crashed sweep — for the read and for the append.
        store_path.mkdir()
        assert self._remeasure(report) == 1

    def test_load_tolerates_wrong_schema(self, report, store_path, monkeypatch):
        self._plant(store_path, {"no_such_field": 1})
        assert self._remeasure(report) == 1
        # The recomputed report was appended after the bad entry and wins.
        runner.clear_caches()
        _no_measuring(monkeypatch)
        assert self._remeasure(report) == 1


class TestMeasurePoints:
    POINTS = [
        ("cholesky", "seq", 8),
        ("cholesky", "tiled", 8),
        ("lu", "seq", 8),
    ]

    def test_parallel_equals_serial(self):
        runner.clear_caches()
        serial = runner.measure_points(self.POINTS, _config(), jobs=1)
        runner.clear_caches()
        parallel = runner.measure_points(self.POINTS, _config(), jobs=2)
        assert [m.report for m in parallel] == [m.report for m in serial]
        assert [(m.kernel, m.variant, m.n) for m in parallel] == self.POINTS

    def test_parallel_seeds_parent_memo(self):
        """After a parallel run the serial assembly path answers from the
        in-process memo even with the disk cache disabled (conftest sets
        REPRO_NO_CACHE=1)."""
        runner.clear_caches()
        [m] = runner.measure_points([("lu", "seq", 8)], _config(), jobs=2)
        again = runner.measure_variant("lu", "seq", 8, _config())
        assert again is m  # identity: memo hit, not a recomputation

    def test_workers_hit_cache_written_before(self, tmp_path, monkeypatch):
        """A 2-job sweep serves points already in the shared disk store:
        a sentinel report planted under the point's key comes back from
        the pool verbatim, proving workers read (not recompute) it."""
        config = _config()
        runner.clear_caches()
        real = runner.measure_variant("cholesky", "seq", 8, config)  # store off
        sentinel = replace(real.report, total_cycles=12345.0)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        key = runner._resolve_point("cholesky", "seq", 8, config)[3]
        disk_store.put("point", key, sentinel.as_dict())
        runner.clear_caches()  # workers must go to disk, not inherit memos
        results = runner.measure_points(
            [("cholesky", "seq", 8), ("lu", "seq", 8)], config, jobs=2
        )
        assert results[0].report.total_cycles == 12345.0
        assert results[1].report.total_cycles > 0

    def test_disk_cache_survives_for_serial_reader(self, tmp_path, monkeypatch):
        """Reports written by pool workers are readable by a later process
        with cold memos — recomputation is impossible here because the
        measurement entry points are stubbed to raise."""
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = _config()
        runner.clear_caches()
        runner.measure_points(
            [("cholesky", "seq", 8), ("lu", "seq", 8)], config, jobs=2
        )
        [store] = tmp_path.glob("store-*.jsonl")
        keys = [json.loads(line)["k"] for line in store.read_text().splitlines()]
        assert sum(k.startswith("point|") for k in keys) == 2
        runner.clear_caches()
        _no_measuring(monkeypatch)
        m = runner.measure_variant("cholesky", "seq", 8, config)
        assert m.report.total_cycles > 0


def test_figure5_rows_identical_across_jobs(monkeypatch):
    """`REPRO_JOBS` is a wall-clock knob only: figure rows are equal."""
    config = _config(sizes=(12,))
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    runner.clear_caches()
    serial = figure5.generate(config)
    runner.clear_caches()
    monkeypatch.setenv("REPRO_JOBS", "2")
    parallel = figure5.generate(config)
    assert parallel == serial
