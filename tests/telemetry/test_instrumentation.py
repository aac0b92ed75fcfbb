"""Layer instrumentation: pipeline, executor, machine, sweep — and the
acceptance contracts (bit-identical results, merged parallel traces)."""

from __future__ import annotations

from dataclasses import replace

from repro import telemetry
from repro.exec.compiled import CompiledProgram
from repro.experiments import runner
from repro.experiments.sweep import default_config
from repro.ir.builder import assign, idx, loop, sym
from repro.ir.program import ArrayDecl, Program
from repro.utils.caching import MISS, code_salt, disk_store


def _config(sizes=(8,)):
    return replace(default_config(quick=True), sizes=tuple(sizes))


def _flat_program(body):
    return Program("t", ("N",), (ArrayDecl("A", (sym("N"),)),), (), tuple(body))


def _spans(name):
    return [s for s in telemetry.spans() if s.name == name]


class TestBitIdentical:
    def test_reports_identical_enabled_vs_disabled(self):
        """REPRO_TELEMETRY must be a pure observer: same PerfReport."""
        runner.clear_caches()
        baseline = runner.measure_variant("cholesky", "seq", 8, _config()).report
        runner.clear_caches()
        telemetry.enable()
        instrumented = runner.measure_variant("cholesky", "seq", 8, _config()).report
        assert instrumented == baseline

    def test_compiled_source_is_identical(self):
        """The executor's generated code must not depend on telemetry
        state — the fallback hooks are unconditional."""
        i = sym("i")
        p = _flat_program(
            [loop("i", 2, sym("N"), [assign(idx("A", i), idx("A", i - 1) + 1.0)])]
        )
        off = CompiledProgram(p, trace=True, exec_mode="block", min_block_trip=1)
        telemetry.enable()
        on = CompiledProgram(p, trace=True, exec_mode="block", min_block_trip=1)
        assert on.source == off.source


class TestExecutorCounters:
    def test_guard_rejection_counted(self):
        """A recurrence compiles a block path but every entry is routed to
        the scalar fallback by the runtime guard — and counted."""
        i = sym("i")
        p = _flat_program(
            [loop("i", 2, sym("N"), [assign(idx("A", i), idx("A", i - 1) + 1.0)])]
        )
        telemetry.enable()
        cp = CompiledProgram(p, trace=True, exec_mode="block", min_block_trip=1)
        cp.run({"N": 20})
        assert cp.fallbacks.guard_rejected == 1
        assert telemetry.counter_value("exec.fallback.guard_rejected") == 1
        [run_span] = _spans("exec.run")
        assert run_span.attrs["guard_rejected"] == 1

    def test_below_min_trip_counted(self):
        i = sym("i")
        p = _flat_program(
            [loop("i", 1, sym("N"), [assign(idx("A", i), 1.0)])]
        )
        telemetry.enable()
        cp = CompiledProgram(p, trace=True, exec_mode="block", min_block_trip=100)
        cp.run({"N": 10})
        assert cp.fallbacks.below_min_trip == 1
        assert telemetry.counter_value("exec.fallback.below_min_trip") == 1

    def test_static_rejection_counted_at_compile(self):
        i = sym("i")
        p = _flat_program([loop("i", 1, 3, [assign(idx("A", i * i), 1.0)])])
        telemetry.enable()
        cp = CompiledProgram(p, trace=True, exec_mode="block", min_block_trip=1)
        assert cp.static_fallbacks == {"non_affine_subscript": 1}
        assert (
            telemetry.counter_value("exec.fallback.static.non_affine_subscript") == 1
        )
        [loop_span] = _spans("exec.loop")
        assert loop_span.attrs["tier"] == "scalar"
        assert loop_span.attrs["reason"] == "non_affine_subscript"

    def test_per_run_deltas_not_cumulative(self):
        """Two runs of the same engine: each exec.run span carries its own
        delta, and the counter totals them."""
        i = sym("i")
        p = _flat_program(
            [loop("i", 2, sym("N"), [assign(idx("A", i), idx("A", i - 1) + 1.0)])]
        )
        telemetry.enable()
        cp = CompiledProgram(p, trace=True, exec_mode="block", min_block_trip=1)
        cp.run({"N": 20})
        cp.run({"N": 20})
        assert telemetry.counter_value("exec.fallback.guard_rejected") == 2
        deltas = [s.attrs["guard_rejected"] for s in _spans("exec.run")]
        assert deltas == [1, 1]


class TestPipelineAndMachineSpans:
    def test_pass_spans_carry_ir_stats(self):
        telemetry.enable()
        runner.clear_caches()
        runner.build_program("cholesky", "tiled", tile=4)
        [recipe_span] = _spans("pipeline.recipe")
        pass_spans = _spans("pipeline.pass")
        assert len(pass_spans) >= 2
        for s in pass_spans:
            assert s.parent_id == recipe_span.span_id
            assert s.attrs["stmts_after"] > 0
            assert "pass" in s.attrs

    def test_streaming_sink_spans_and_counters(self):
        telemetry.enable()
        runner.clear_caches()
        runner.measure_variant("lu", "seq", 8, _config())
        [point] = _spans("sweep.point")
        assert point.attrs["source"] == "computed"
        [ms] = _spans("machine.measure_streaming")
        assert ms.parent_id == point.span_id
        for sink in ("memory", "branch"):
            [s] = _spans(f"machine.sink.{sink}")
            assert s.parent_id == ms.span_id
            assert s.attrs["chunks"] >= 1
            assert (
                telemetry.counter_value(f"machine.sink.{sink}.events")
                == s.attrs["events"]
            )


class TestSweepCounters:
    def test_memo_hit_skips_point_span(self):
        telemetry.enable()
        runner.clear_caches()
        runner.measure_variant("lu", "seq", 8, _config())
        runner.measure_variant("lu", "seq", 8, _config())
        assert len(_spans("sweep.point")) == 1
        assert telemetry.counter_value("sweep.memo.hit") == 1
        assert telemetry.counter_value("sweep.cache.miss") == 1

    def test_corrupt_cache_entry_counted_and_logged(
        self, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        (tmp_path / f"store-{code_salt()}.jsonl").write_text(
            '{"k": "point|bad", "v": {"total_cycles": 1\n'
        )
        runner.clear_caches()
        telemetry.enable()
        with caplog.at_level("WARNING", logger="repro.cache"):
            assert disk_store.get("point", "bad") is MISS
        assert telemetry.counter_value("cache.corrupt") == 1
        assert "discarding unreadable entry" in caplog.text

    def test_disk_hit_tagged_on_span(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = _config()
        runner.clear_caches()
        runner.measure_variant("lu", "seq", 8, config)  # populates disk
        runner.clear_caches()
        telemetry.enable()
        runner.measure_variant("lu", "seq", 8, config)
        [point] = _spans("sweep.point")
        assert point.attrs["source"] == "disk"
        assert point.attrs["key"].startswith("lu-seq-N8-")
        assert telemetry.counter_value("sweep.cache.hit") == 1
        # Provenance: the store load records the code salt it read under.
        [load] = _spans("cache.load")
        assert load.attrs["salt"] == code_salt()
        assert load.attrs["entries"] >= 1


class TestParallelSweepMerge:
    POINTS = [
        ("cholesky", "seq", 8),
        ("cholesky", "tiled", 8),
        ("lu", "seq", 8),
    ]

    def test_merged_trace_has_one_span_per_point(self):
        """Acceptance: with REPRO_JOBS>1 the parent holds a single merged
        trace whose sweep.point span count equals the measured points."""
        telemetry.enable()
        runner.clear_caches()
        results = runner.measure_points(self.POINTS, _config(), jobs=2)
        assert len(results) == len(self.POINTS)
        points = _spans("sweep.point")
        assert len(points) == len(self.POINTS)
        assert {(s.attrs["kernel"], s.attrs["variant"]) for s in points} == {
            (k, v) for k, v, _ in self.POINTS
        }
        # Workers ran out-of-process; their spans keep the origin pid.
        import os

        assert all(s.pid != os.getpid() for s in points)
        # Metric snapshots merged additively across the pool.
        assert telemetry.counter_value("sweep.cache.miss") == len(self.POINTS)
        # Parent-side assembly answered from the seeded memo.
        assert telemetry.counter_value("sweep.memo.hit") == len(self.POINTS)

    def test_parallel_results_unchanged_by_telemetry(self):
        runner.clear_caches()
        plain = runner.measure_points(self.POINTS, _config(), jobs=2)
        runner.clear_caches()
        telemetry.enable()
        traced = runner.measure_points(self.POINTS, _config(), jobs=2)
        assert [m.report for m in traced] == [m.report for m in plain]
