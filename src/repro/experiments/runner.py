"""Running kernel variants under the machine model.

``measure_variant`` is the single code path every figure uses: resolve the
variant through the **recipe registry** (:mod:`repro.kernels.recipes`),
build its program with the :class:`~repro.pipeline.manager.PassManager`
(keeping the per-pass timing report), compile with tracing, run on
deterministic inputs, replay the traces through the simulated Octane2, and
return the :class:`~repro.machine.perfcounters.PerfReport`. Its measuring
step, :func:`measure_program`, also serves ad-hoc programs (the ablations).

Measurements are memoised in-process (capped LRU; :func:`clear_caches`
resets) and, optionally, in the shared disk store
(:data:`repro.utils.caching.disk_store` under ``REPRO_CACHE_DIR``; set
``REPRO_NO_CACHE=1`` to disable). A point's key covers every *input* of
the measurement: a content fingerprint of the recipe, the emitted
program, the machine config and the run parameters
(:func:`repro.pipeline.recipe.measurement_fingerprint`). The *code* that
measures is covered by the store itself, whose file name is salted with
a digest of the ``repro`` source: editing the simulator, the executor or
the cost model starts a fresh store, so a stale report is never read.

Sweep grids fan out across processes with :func:`measure_points`
(``REPRO_JOBS``, default 1). Every worker starts with *empty* in-process
memos (:func:`clear_caches` runs as the pool initializer) but shares the
disk store, whose single-line appends a concurrent reader either sees
whole or skips as corrupt. The figure generators then assemble their
output through the unchanged serial path, which finds every point already
memoised — parallel runs are byte-identical to serial ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.exec.compiled import (
    CompiledProgram,
    resolve_exec_mode,
    resolve_min_block_trip,
)
from repro.experiments.sweep import SweepConfig, resolve_jobs
from repro.ir.program import Program
from repro.kernels.registry import get_kernel, get_recipe
from repro.machine.perfcounters import PerfReport, measure, measure_streaming
from repro.pipeline.manager import PassManager, PipelineReport
from repro.pipeline.passes import PassContext
from repro.pipeline.recipe import measurement_fingerprint, program_fingerprint
from repro.utils.caching import MISS, LRUCache, disk_store


@dataclass(frozen=True)
class VariantMeasurement:
    """One measured (kernel, variant, size) point."""

    kernel: str
    variant: str
    n: int
    tile: int | None
    report: PerfReport
    #: Per-pass build evidence of the program measured.
    pipeline: PipelineReport


_memo: LRUCache = LRUCache(maxsize=4096)
_built: LRUCache = LRUCache(maxsize=256)
_compiled: LRUCache = LRUCache(maxsize=256)


def clear_caches() -> None:
    """Drop every in-process memo (measurements, built programs,
    compiled engines) and, through ``poly.memo.clear_memos``, the disk
    store's loaded view; the store's file is untouched.

    Also the :func:`measure_points` pool initializer: forked workers
    inherit the parent's memos, and a sweep worker must re-measure (or
    disk-load) rather than answer from inherited state, so each worker
    starts cold in-process and warm on disk.
    """
    from repro.poly import memo as poly_memo

    _memo.clear()
    _built.clear()
    _compiled.clear()
    poly_memo.clear_memos()


def build_program(
    kernel: str, variant: str, *, tile: int | None = None,
    time_tile: int | None = None,
) -> tuple[Program, PipelineReport, str]:
    """Build one variant through its registered recipe (memoised): the
    program, its per-pass report and its :func:`program_fingerprint`
    (serialised once per build, not once per point key).

    Raises :class:`~repro.errors.ReproError` for unknown kernels/variants,
    listing the registered choices.
    """
    recipe = get_recipe(kernel, variant)

    def compute():
        ctx = PassContext(
            kernel=get_kernel(kernel), tile=tile, time_tile=time_tile
        )
        program, pipeline = PassManager().build(recipe, ctx)
        return program, pipeline, program_fingerprint(program)

    return _built.get_or_compute((kernel, variant, tile, time_tile), compute)


def _params_for(kernel: str, n: int, config: SweepConfig) -> dict[str, int]:
    params = {"N": n}
    if "M" in get_kernel(kernel).PARAMS:
        params["M"] = config.jacobi_m
    return params


def _trace_mode(override: str | None) -> str:
    mode = override or os.environ.get("REPRO_TRACE_MODE", "stream")
    if mode not in ("stream", "materialize"):
        raise ValueError(
            f"trace_mode must be 'stream' or 'materialize', got {mode!r}"
        )
    return mode


def _tile_for(variant: str, n: int, config: SweepConfig, tile: int | None) -> int | None:
    if variant in ("tiled", "tiled_sunk") and tile is None:
        return config.tile_for(n)
    return tile


def _resolve_point(
    kernel: str, variant: str, n: int, config: SweepConfig, tile: int | None = None
) -> tuple[int | None, Program, PipelineReport, str]:
    """(tile, program, build report, memo/store key) of one grid point.

    The key is a human-readable prefix plus the content fingerprint, the
    same in the parent and in every sweep worker.
    """
    tile = _tile_for(variant, n, config, tile)
    program, pipeline, program_fp = build_program(kernel, variant, tile=tile)
    run = {"params": _params_for(kernel, n, config), "tile": tile, "seed": config.seed}
    key = f"{kernel}-{variant}-N{n}-" + measurement_fingerprint(
        get_recipe(kernel, variant), program_fp, config.machine, run
    )
    return tile, program, pipeline, key


def measure_variant(
    kernel: str,
    variant: str,
    n: int,
    config: SweepConfig,
    *,
    tile: int | None = None,
    trace_mode: str | None = None,
) -> VariantMeasurement:
    """Measure one (kernel, variant, N) point (memoised).

    ``trace_mode`` selects how the trace reaches the machine model:
    ``"stream"`` (default) drives the fused sink pipeline in bounded
    memory; ``"materialize"`` builds the full trace first and feeds the
    same sinks one chunk per stream (debugging path). Results are
    bit-identical, so the cache key is unaffected;
    the ``REPRO_TRACE_MODE`` env var overrides the default. The same
    holds for the executor tier (``REPRO_EXEC_MODE``): block and scalar
    produce bit-identical reports by contract.
    """
    trace_mode = _trace_mode(trace_mode)  # a bad value fails on memo hits too
    tile, program, pipeline, key = _resolve_point(kernel, variant, n, config, tile)
    if key in _memo:
        telemetry.counter("sweep.memo.hit")
        return _memo[key]

    # One span per *measured* grid point: memo hits above never reach
    # here, so a sweep's `sweep.point` span count equals the number of
    # points that actually went to disk or to the machine model.
    with telemetry.span(
        "sweep.point", kernel=kernel, variant=variant, n=n, key=key
    ) as sp:
        report = disk_store.get("point", key, _decode_report)
        if report is not MISS:
            telemetry.counter("sweep.cache.hit")
            sp.set(source="disk")
        else:
            telemetry.counter("sweep.cache.miss")
            report = measure_program(
                program, kernel, n, config, engine_key=(kernel, variant, tile),
                trace_mode=trace_mode,
            )
            disk_store.put("point", key, report.as_dict())
            sp.set(source="computed")
        result = VariantMeasurement(kernel, variant, n, tile, report, pipeline)
        _memo[key] = result
        return result


def _decode_report(data: dict) -> PerfReport:
    return PerfReport(**data)


def measure_program(
    program: Program,
    kernel: str,
    n: int,
    config: SweepConfig,
    *,
    engine_key: tuple | None = None,
    trace_mode: str | None = None,
) -> PerfReport:
    """Run *program* on *kernel*'s deterministic inputs at size *n* and
    measure it on ``config.machine`` (no memo, no disk cache).

    ``engine_key`` memoises the compiled engine (a registry variant's
    ``(kernel, variant, tile)``); ``None`` compiles afresh, for ad-hoc
    programs such as the ablations'. ``trace_mode`` is as for
    :func:`measure_variant`.
    """
    params = _params_for(kernel, n, config)
    inputs = get_kernel(kernel).make_inputs(params, np.random.default_rng(config.seed))

    def compile_program():
        return CompiledProgram(program, trace=True)

    if engine_key is None:
        cp = compile_program()
    else:
        # The engine memo must key on the effective tier configuration:
        # flipping REPRO_EXEC_MODE / REPRO_BLOCK_MIN_TRIP mid-process must
        # not resurrect an engine compiled for the other tier.
        cp = _compiled.get_or_compute(
            (*engine_key, resolve_exec_mode(), resolve_min_block_trip()),
            compile_program,
        )
    if _trace_mode(trace_mode) == "stream":
        return measure_streaming(cp, params, config.machine, inputs)[1]
    return measure(cp.run(params, inputs), cp.program, params, config.machine)


def _measure_point_worker(
    point: tuple[str, str, int],
    config: SweepConfig,
    with_telemetry: bool = False,
) -> tuple[tuple[str, str, int], dict[str, float], dict | None]:
    """Sweep-pool body: measure one point, return its report as a dict
    plus (when the parent is recording) the worker's serialized telemetry.

    Runs in a worker whose in-process memos were cleared by the pool
    initializer; the measurement also lands in the shared disk store (if
    enabled). Telemetry is reset *per point* so a
    forking pool never re-exports inherited parent spans — the parent
    absorbs exactly one point's evidence per returned state.
    """
    if with_telemetry:
        telemetry.reset()
        telemetry.enable()
    kernel, variant, n = point
    report = measure_variant(kernel, variant, n, config).report.as_dict()
    state = telemetry.export_state() if with_telemetry else None
    return point, report, state


def measure_points(
    points: list[tuple[str, str, int]],
    config: SweepConfig,
    *,
    jobs: int | None = None,
) -> list[VariantMeasurement]:
    """Measure a grid of (kernel, variant, N) points, optionally in
    parallel, and return them in input order.

    ``jobs`` (default: ``REPRO_JOBS``, i.e. 1) sets the worker-process
    count. With 1 the points run serially through
    :func:`measure_variant` — exactly the historical code path. With
    more, the *unmemoised* points fan out across a
    ``ProcessPoolExecutor`` whose workers start with cleared in-process
    memos (see :func:`clear_caches`) but share the disk store; the
    parent then seeds its own memo from the workers' reports, so
    subsequent serial figure assembly reuses them byte-identically even
    with ``REPRO_NO_CACHE=1``.
    """
    points = [tuple(p) for p in points]
    jobs = resolve_jobs(jobs)
    todo = {}
    for point in dict.fromkeys(points):
        resolved = _resolve_point(*point, config)
        if resolved[3] not in _memo:
            todo[point] = resolved
    if jobs > 1 and len(todo) > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with_telemetry = telemetry.enabled()
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(todo)), initializer=clear_caches
        ) as pool:
            futures = [
                pool.submit(_measure_point_worker, p, config, with_telemetry)
                for p in todo
            ]
            for fut in as_completed(futures):
                (kernel, variant, n), data, state = fut.result()
                tile, _, pipeline, key = todo[(kernel, variant, n)]
                _memo[key] = VariantMeasurement(
                    kernel, variant, n, tile, _decode_report(data), pipeline
                )
                # Fold each worker's spans/metrics into the parent so a
                # parallel sweep yields one coherent trace.
                telemetry.absorb(state)
    return [measure_variant(k, v, n, config) for k, v, n in points]


def run_pair(
    kernel: str, n: int, config: SweepConfig
) -> tuple[VariantMeasurement, VariantMeasurement, float]:
    """(seq, tiled, speedup) for one kernel and size."""
    seq = measure_variant(kernel, "seq", n, config)
    tiled = measure_variant(kernel, "tiled", n, config)
    speedup = seq.report.total_cycles / tiled.report.total_cycles
    return seq, tiled, speedup
