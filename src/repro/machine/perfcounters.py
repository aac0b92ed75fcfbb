"""End-to-end perfex-style measurement of one traced run.

Every report comes out of one chain of :class:`~repro.machine.sinks.TraceSink`
consumers: :class:`MemoryPipelineSink` (decode → address mapping →
register window → L1 → L2) plus a branch predictor sink, aggregated into
cycles with the cost model by :func:`_assemble_report` — every observable
the paper's Figures 5–8 plot. Two entry points feed that chain:

- :func:`measure_streaming` executes the compiled program itself and
  streams its events through the sinks in bounded chunks — the trace
  never exists as one object (the production path);
- :func:`measure` takes a fully-materialized traced
  :class:`~repro.exec.events.RunResult` and feeds the same sinks its
  whole trace as one memory chunk and one branch chunk (the debugging
  path).

Both build their sinks with :func:`_pipeline_sinks`, so the two reports
are bit-identical given the sinks' chunking invariance (asserted per
recipe by the equivalence test-suite).

Neither path cares which codegen tier produced the events: the block
tier's whole-trip event matrices arrive through the same chunk protocol
as the scalar tier's appends, in the same program order, so a
``PerfReport`` is independent of ``REPRO_EXEC_MODE`` (asserted per recipe
by the differential suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro import telemetry
from repro.errors import MachineError
from repro.exec.events import Counters, RunResult, decode_memory_events
from repro.ir.program import Program
from repro.machine.branch import BranchStats, TwoBitPredictorSink
from repro.machine.configs import MachineConfig
from repro.machine.hierarchy import HierarchyResult, HierarchySink
from repro.machine.layout import MemoryLayout, layout_for_program
from repro.machine.registers import RegisterFilterSink


@dataclass(frozen=True)
class PerfReport:
    """All per-run observables (the paper's perfex counters + cycles)."""

    program: str
    machine: str
    accesses: int
    register_load_hits: int
    l1_misses: int
    l2_misses: int
    branches_resolved: int
    branches_mispredicted: int
    graduated_instructions: int
    l1_miss_cycles: float
    l2_miss_cycles: float
    branch_resolve_cycles: float
    branch_mispredict_cycles: float
    total_cycles: float

    def as_dict(self) -> dict[str, float]:
        """Flat dict (stable order) for tables and JSON dumps."""
        return {
            "program": self.program,
            "machine": self.machine,
            "accesses": self.accesses,
            "register_load_hits": self.register_load_hits,
            "l1_misses": self.l1_misses,
            "l2_misses": self.l2_misses,
            "branches_resolved": self.branches_resolved,
            "branches_mispredicted": self.branches_mispredicted,
            "graduated_instructions": self.graduated_instructions,
            "l1_miss_cycles": self.l1_miss_cycles,
            "l2_miss_cycles": self.l2_miss_cycles,
            "branch_resolve_cycles": self.branch_resolve_cycles,
            "branch_mispredict_cycles": self.branch_mispredict_cycles,
            "total_cycles": self.total_cycles,
        }


class MemoryPipelineSink:
    """Fused memory-side pipeline over encoded memory-event chunks.

    Each chunk flows decode → address mapping → register filter →
    L1 → L2 in one pass.
    """

    def __init__(
        self,
        machine: MachineConfig,
        layout: MemoryLayout,
        id_to_name: dict[int, str],
    ):
        self._layout = layout
        self._id_to_name = id_to_name
        self._registers = RegisterFilterSink(machine.registers)
        self._hierarchy = HierarchySink(machine.l1, machine.l2)

    def feed(self, codes: np.ndarray) -> None:
        """Push one encoded chunk through the whole memory pipeline."""
        aid, lin, rw = decode_memory_events(codes)
        addresses = self._layout.addresses(aid, lin, self._id_to_name)
        keep = self._registers.feed((addresses, rw))
        self._hierarchy.feed(addresses[keep])

    def finish(self) -> tuple[int, HierarchyResult]:
        """(register load hits, hierarchy result)."""
        regs = self._registers.finish()
        return regs.load_hits, self._hierarchy.finish()


def _assemble_report(
    program: Program,
    machine: MachineConfig,
    counters: Counters,
    load_hits: int,
    hier: HierarchyResult,
    branch: BranchStats,
) -> PerfReport:
    """Cost aggregation of one run's counters and sink results."""
    costs = machine.costs
    # Register-elided loads never graduate as instructions.
    effective = Counters(**counters.as_dict())
    effective.loads = max(counters.loads - load_hits, 0)
    return PerfReport(
        program=program.name,
        machine=machine.name,
        accesses=hier.accesses,
        register_load_hits=load_hits,
        l1_misses=hier.l1_misses,
        l2_misses=hier.l2_misses,
        branches_resolved=branch.resolved,
        branches_mispredicted=branch.mispredicted,
        graduated_instructions=costs.graduated_instructions(effective),
        l1_miss_cycles=costs.l1_miss_cycle_total(hier.l1_misses),
        l2_miss_cycles=costs.l2_miss_cycle_total(hier.l2_misses),
        branch_resolve_cycles=branch.resolved * costs.branch_resolve_cycles,
        branch_mispredict_cycles=branch.mispredicted * costs.branch_mispredict_cycles,
        total_cycles=costs.total_cycles(
            effective, hier.l1_misses, hier.l2_misses, branch.mispredicted
        ),
    )


def _pipeline_sinks(
    program: Program,
    array_ids: Mapping[str, int],
    params: Mapping[str, int],
    machine: MachineConfig,
    predictor,
):
    """The (memory, branch) sinks of one measurement.

    *predictor* is a branch sink (default :class:`TwoBitPredictorSink`).
    With telemetry on, both are wrapped in per-sink replay spans and
    chunk/event counters; the wrappers preserve feed/finish semantics
    bit-exactly, so reports are identical with telemetry on or off.
    """
    layout = layout_for_program(program, params)
    id_to_name = {v: k for k, v in array_ids.items()}
    memory_sink = MemoryPipelineSink(machine, layout, id_to_name)
    branch_sink = TwoBitPredictorSink() if predictor is None else predictor
    if telemetry.enabled():
        from repro.telemetry.instrument import InstrumentedSink

        memory_sink = InstrumentedSink(memory_sink, "memory")
        branch_sink = InstrumentedSink(branch_sink, "branch")
    return memory_sink, branch_sink


def measure(
    result: RunResult,
    program: Program,
    params: Mapping[str, int],
    machine: MachineConfig,
    *,
    predictor=None,
) -> PerfReport:
    """Replay a materialized traced run on *machine* (debugging path).

    The sinks of :func:`measure_streaming` receive the whole trace as one
    chunk per stream; *predictor* is a fresh branch sink.
    """
    if result.trace is None:
        raise MachineError("measure() needs a traced run (trace=True)")
    with telemetry.span(
        "machine.measure", program=program.name, machine=machine.name
    ):
        memory_sink, branch_sink = _pipeline_sinks(
            program, result.array_ids, params, machine, predictor
        )
        trace = result.trace
        for sink, codes in ((memory_sink, trace.memory), (branch_sink, trace.branches)):
            if len(codes):  # as in run_streaming, never an empty chunk
                sink.feed(codes)
        load_hits, hier = memory_sink.finish()
        return _assemble_report(
            program, machine, result.counters, load_hits, hier, branch_sink.finish()
        )


def measure_streaming(
    compiled,
    params: Mapping[str, int],
    machine: MachineConfig,
    inputs: Mapping[str, np.ndarray] | None = None,
    *,
    predictor=None,
    chunk_events: int | None = None,
) -> tuple[RunResult, PerfReport]:
    """Execute *compiled* and measure it in one fused streaming pass.

    *compiled* is a traced :class:`~repro.exec.compiled.CompiledProgram`;
    the returned :class:`~repro.exec.events.RunResult` has ``trace=None``
    (arrays, scalars and counters are intact). Peak trace memory is
    bounded by the chunk size regardless of the run's event count.
    *predictor* is a fresh branch sink (default
    :class:`~repro.machine.branch.TwoBitPredictorSink`).
    """
    program = compiled.program
    with telemetry.span(
        "machine.measure_streaming", program=program.name, machine=machine.name
    ):
        memory_sink, branch_sink = _pipeline_sinks(
            program, compiled.array_ids, params, machine, predictor
        )
        kwargs = {} if chunk_events is None else {"chunk_events": chunk_events}
        result = compiled.run_streaming(
            params, inputs, memory_sink=memory_sink, branch_sink=branch_sink, **kwargs
        )
        load_hits, hier = memory_sink.finish()
        report = _assemble_report(
            program, machine, result.counters, load_hits, hier, branch_sink.finish()
        )
        return result, report
