"""Per-layer tracing of one workload pass, recorded from outside the program.

Nothing under ``src/`` is instrumented and ``repro.telemetry`` is not used.
Instead the benchmark wraps the public entry points of each layer while a
traced pass runs (:meth:`Tracer.patched`) and records a span around every
call:

==================  ==================================================
span                wrapped call (layer)
==================  ==================================================
``pass``            one workload pass (root; its self time is ``other_s``)
``pipeline.build``  ``PassManager.build`` (``pipeline``/``poly``/``deps``/``trans``)
``runner.measure``  ``runner.measure_variant`` (``experiments.runner``)
``exec.compile``    ``CompiledProgram(...)`` (``exec`` codegen)
``exec.run``        ``CompiledProgram.run_streaming`` (``exec`` trace producer)
``machine.*``       decode, layout, register window, L1, L2, branch (``machine``)
==================  ==================================================

The memory pipeline is composed here from the public pieces
(``decode_memory_events``, ``MemoryLayout.addresses``,
``RegisterFilterSink``, two ``CacheSink``\\ s and ``TwoBitPredictorSink``),
each stage behind a stopwatch. Feed times are summed per point and stage
and recorded as one aggregate span per stage (``calls`` > 0), so the trace
stays small however many chunks a point streams.

A span's *self time* is its duration minus its children's. Every call the
tracer wraps runs inside the root ``pass`` span and the layers never
overlap, so the self times of all spans sum to the traced wall exactly.
"""

from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exec.compiled import CompiledProgram
from repro.exec.events import decode_memory_events
from repro.experiments import figure678, runner
from repro.machine import perfcounters
from repro.machine.branch import TwoBitPredictorSink
from repro.machine.cache import CacheSink
from repro.machine.hierarchy import HierarchyResult
from repro.machine.layout import layout_for_program
from repro.machine.registers import RegisterFilterSink
from repro.pipeline.manager import PassManager

_clock = time.perf_counter

#: Stages of the composed memory pipeline plus the branch predictor, in
#: feed order; each is one aggregate span per point.
MACHINE_STAGES = ("decode", "layout", "regwin", "l1", "l2", "branch")

#: Span name -> layer whose self time it counts towards.
LAYER_OF_SPAN = {
    "pass": "other",
    "pipeline.build": "pipeline.build",
    "runner.measure": "runner.self",
    "exec.compile": "exec.compile",
    "exec.run": "exec.produce",
    **{f"machine.{s}": f"machine.{s}" for s in MACHINE_STAGES},
}

#: Layers in report order (the per-layer table and the ``*_s`` metrics).
LAYERS = (
    "pipeline.build",
    "exec.compile",
    "exec.produce",
    *(f"machine.{s}" for s in MACHINE_STAGES),
    "runner.self",
    "other",
)


@dataclass
class Span:
    """One closed span; aggregate spans carry the number of calls summed."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    point: str | None
    calls: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _StageClock:
    """Summed seconds, calls and events of one pipeline stage."""

    __slots__ = ("seconds", "calls", "events")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.events = 0

    def add(self, seconds: float, events: int) -> None:
        self.seconds += seconds
        self.calls += 1
        self.events += events


class TracedMemoryPipeline:
    """``MemoryPipelineSink`` rebuilt from public pieces, stage by stage.

    Same order and semantics as the program's fused sink: decode, map to
    byte addresses, filter through the register window, replay L1, and
    forward only L1 misses to L2.
    """

    def __init__(self, machine, layout, id_to_name: dict[int, str]):
        self._layout = layout
        self._id_to_name = id_to_name
        self._registers = RegisterFilterSink(machine.registers)
        self._l1 = CacheSink(machine.l1)
        self._l2 = CacheSink(machine.l2)
        self.stages = {s: _StageClock() for s in MACHINE_STAGES if s != "branch"}

    def feed(self, codes: np.ndarray) -> None:
        st = self.stages
        n = len(codes)
        t0 = _clock()
        aid, lin, rw = decode_memory_events(codes)
        t1 = _clock()
        addresses = self._layout.addresses(aid, lin, self._id_to_name)
        t2 = _clock()
        stream = addresses[self._registers.feed((addresses, rw))]
        t3 = _clock()
        st["decode"].add(t1 - t0, n)
        st["layout"].add(t2 - t1, n)
        st["regwin"].add(t3 - t2, n)
        if len(stream):
            l2_stream = stream[self._l1.feed(stream)]
            t4 = _clock()
            st["l1"].add(t4 - t3, len(stream))
            if len(l2_stream):
                self._l2.feed(l2_stream)
                st["l2"].add(_clock() - t4, len(l2_stream))

    def finish(self) -> tuple[int, HierarchyResult]:
        """(register load hits, hierarchy result), as the program's sink."""
        load_hits = self._registers.finish().load_hits
        l1, l2 = self._l1.finish(), self._l2.finish()
        return load_hits, HierarchyResult(
            accesses=l1.accesses, l1_misses=l1.misses, l2_misses=l2.misses
        )


class TracedBranchSink:
    """``TwoBitPredictorSink`` behind a stopwatch."""

    def __init__(self) -> None:
        self._sink = TwoBitPredictorSink()
        self.clock = _StageClock()

    def feed(self, codes: np.ndarray) -> None:
        t0 = _clock()
        self._sink.feed(codes)
        self.clock.add(_clock() - t0, len(codes))

    def finish(self):
        return self._sink.finish()


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        #: Kernel outputs of traced runs, checked against the NumPy
        #: references after the timed pass: (point, kernel, params, inputs,
        #: arrays).
        self.outputs: list[tuple[str, str, dict, dict, dict]] = []
        self._ids = itertools.count()
        self._stack: list[Span] = []
        #: Id shared by every span of the point being measured, and its kernel.
        self._point: str | None = None
        self._kernel: str | None = None
        self._seen_points: set[str] = set()

    # -- recording -------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def at(self, point: str, kernel: str | None = None):
        """Tag every span opened inside with *point*."""
        outer = self._point, self._kernel
        self._point, self._kernel = point, kernel
        try:
            yield
        finally:
            self._point, self._kernel = outer

    @contextmanager
    def span(self, name: str, point: str | None = None):
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            id=next(self._ids),
            name=name,
            start=_clock(),
            end=0.0,
            parent=parent.id if parent else None,
            point=point or self._point,
        )
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = _clock()
            self._stack.pop()
            self.spans.append(sp)

    def aggregate(self, parent: Span, name: str, clock: _StageClock, start: float) -> float:
        """Record *clock*'s summed feed time as one child span of *parent*
        starting at *start*; returns where the next aggregate starts."""
        if not clock.calls:
            return start
        self.spans.append(
            Span(
                id=next(self._ids),
                name=name,
                start=start,
                end=start + clock.seconds,
                parent=parent.id,
                point=parent.point,
                calls=clock.calls,
                attrs={"events": clock.events},
            )
        )
        self.count(f"{name}.calls", clock.calls)
        self.count(f"{name}.events", clock.events)
        return start + clock.seconds

    # -- timing proxies --------------------------------------------------
    def pass_manager_class(self) -> type[PassManager]:
        """A ``PassManager`` whose ``build`` runs in a ``pipeline.build`` span."""
        tracer = self

        class TimedPassManager(PassManager):
            def build(self, recipe, ctx=None):
                point = build_point(recipe.kernel, recipe.variant, getattr(ctx, "tile", None))
                with tracer.span("pipeline.build", point=point):
                    out = super().build(recipe, ctx)
                tracer.count("pipeline.builds")
                return out

        return TimedPassManager

    def compiled_program(self, program, **kwargs) -> CompiledProgram:
        """``CompiledProgram(program, **kwargs)`` inside an ``exec.compile``
        span, counting its loop tiers."""
        with self.span("exec.compile"):
            cp = CompiledProgram(program, **kwargs)
        self.count("exec.compiles")
        self.count("exec.block_loops", cp.block_loops)
        self.count(
            "exec.scalar_loops", sum(1 for _, tier, _ in cp.loop_tiers if tier == "scalar")
        )
        return cp

    def measure_streaming(self, compiled, params, machine, inputs=None):
        """Drop-in for ``perfcounters.measure_streaming`` (default predictor
        and chunk size) over the stage-timed composed pipeline."""
        program = compiled.program
        with self.span("machine.layout"):
            layout = layout_for_program(program, params)
        id_to_name = {v: k for k, v in compiled.array_ids.items()}
        memory = TracedMemoryPipeline(machine, layout, id_to_name)
        branch = TracedBranchSink()
        fb = compiled.fallbacks
        guard0, trip0 = fb.guard_rejected, fb.below_min_trip
        with self.span("exec.run") as run_span:
            result = compiled.run_streaming(
                params, inputs, memory_sink=memory, branch_sink=branch
            )
        self.count("exec.runs")
        at = run_span.start
        for stage, clock in memory.stages.items():
            at = self.aggregate(run_span, f"machine.{stage}", clock, at)
        self.aggregate(run_span, "machine.branch", branch.clock, at)
        self.count("exec.fallbacks.guard_rejected", fb.guard_rejected - guard0)
        self.count("exec.fallbacks.below_min_trip", fb.below_min_trip - trip0)
        load_hits, hier = memory.finish()
        # The program's own report assembly, so the comparison against
        # measure_streaming covers the composed pipeline only.
        report = perfcounters._assemble_report(
            program, machine, result.counters, load_hits, hier, branch.finish()
        )
        if self._kernel is not None:
            outputs = {n: result.arrays[n] for n in program.outputs if n in result.arrays}
            self.outputs.append(
                (self._point, self._kernel, dict(params), dict(inputs or {}), outputs)
            )
        return result, report

    def _measure_variant(self, original):
        tracer = self

        def measure_variant(kernel, variant, n, config, **kwargs):
            point = f"{kernel}/{variant}/N{n}"
            runs_before = tracer.counts.get("exec.runs", 0)
            with tracer.at(point, kernel), tracer.span("runner.measure") as sp:
                out = original(kernel, variant, n, config, **kwargs)
            # Classified from outside: after clear_caches() the first call
            # for a point either streamed a run (computed) or did not (it
            # was read from disk); later calls are in-process memo hits.
            if point in tracer._seen_points:
                source = "memo"
            elif tracer.counts.get("exec.runs", 0) > runs_before:
                source = "computed"
                tracer.count("runner.cache_misses")
            else:
                source = "disk"
                tracer.count("runner.cache_hits")
            sp.attrs["source"] = source
            tracer.count("runner.measures")
            tracer._seen_points.add(point)
            return out

        return measure_variant

    @contextmanager
    def patched(self):
        """Route the sweep runner's collaborators through the proxies for
        the duration of one traced figure pass (run after clear_caches())."""
        self._seen_points.clear()
        measure_variant = self._measure_variant(runner.measure_variant)
        replacements = {
            (runner, "PassManager"): self.pass_manager_class(),
            (runner, "CompiledProgram"): self.compiled_program,
            (runner, "measure_streaming"): self.measure_streaming,
            (runner, "measure_variant"): measure_variant,
            (figure678, "measure_variant"): measure_variant,
        }
        originals = {key: getattr(*key) for key in replacements}
        try:
            for (mod, name), value in replacements.items():
                setattr(mod, name, value)
            yield self
        finally:
            for (mod, name), value in originals.items():
                setattr(mod, name, value)


def build_point(kernel: str, variant: str, tile: int | None) -> str:
    """Point id of one variant build (shared by every N it serves)."""
    return f"{kernel}/{variant}" + ("" if tile is None else f"@t{tile}")


# -- accounting ------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child.get(s.id, 0.0) for s in spans}


def layer_seconds(spans: list[Span]) -> dict[str, float]:
    """Summed self seconds per layer (every layer present, zero if idle)."""
    out = dict.fromkeys(LAYERS, 0.0)
    selfs = self_times(spans)
    for s in spans:
        out[LAYER_OF_SPAN[s.name]] += selfs[s.id]
    return out


def wall_seconds(spans: list[Span]) -> float:
    """Summed duration of the root spans (the traced wall)."""
    return sum(s.duration for s in spans if s.parent is None)


# -- artefacts ---------------------------------------------------------------


def write_jsonl(spans: list[Span], path: Path) -> None:
    """One span per line: name, start, end, parent, point id (+ calls)."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            rec = {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "point": s.point,
            }
            if s.calls:
                rec["calls"] = s.calls
            rec.update(s.attrs)
            fh.write(json.dumps(rec) + "\n")


def write_chrome(spans: list[Span], path: Path, pid: int) -> None:
    """Chrome ``trace_event`` complete events (open in chrome://tracing or
    Perfetto). Aggregate spans are laid end to end inside their parent."""
    t0 = min((s.start for s in spans), default=0.0)
    events = [
        {
            "name": s.name,
            "ph": "X",
            "ts": (s.start - t0) * 1e6,
            "dur": s.duration * 1e6,
            "pid": pid,
            "tid": 0,
            "args": {"id": s.id, "parent": s.parent, "point": s.point,
                     "calls": s.calls, **s.attrs},
        }
        for s in spans
    ]
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def layer_table(seconds: dict[str, float], events: dict[str, float], wall: float) -> str:
    """One line per layer: self seconds, share of the traced wall, events
    handled and events per self second."""
    lines = [f"{'layer':16s} {'self_s':>9s} {'share':>7s} {'events':>12s} {'events/s':>12s}"]
    for layer in LAYERS:
        sec = seconds[layer]
        ev = events.get(layer, 0)
        rate = f"{ev / sec:12.4g}" if ev and sec > 0 else f"{'-':>12s}"
        share = sec / wall if wall > 0 else 0.0
        lines.append(f"{layer:16s} {sec:9.4f} {share:7.2%} {int(ev):12d} {rate}")
    lines.append(f"{'traced wall':16s} {wall:9.4f} {1:7.2%}")
    return "\n".join(lines)
