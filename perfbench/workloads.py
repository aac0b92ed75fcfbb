"""The three benchmark workloads.

Each workload is one process, one job, no threads. A *pass* is the unit
timed: ``prepare()`` resets state outside the timer, ``run(tracer)`` is the
timed body, and ``check()`` compares what the pass produced against the
golden data, returning one failure message per wrong or missing output.

``figure5-cold``
    The ROADMAP north star: the ``figure5 --quick`` grid (4 kernels x
    N in {24, 56, 88, 120} x seq/tiled = 32 points) through
    ``figure5.generate`` with the disk cache off and the in-process memos
    cleared before each pass. The ``machine`` and ``exec`` layers do almost
    all of the work; ``pipeline`` builds are a few percent.
``registry-build``
    A cold build plus ``CompiledProgram(..., trace=True)`` of all 43
    ``registry_build_matrix()`` points, memos cleared, no disk memo, in an
    order shuffled by the seed (cross-variant memo reuse depends on order,
    the emitted programs must not). Analysis and codegen only: the
    ``machine`` layer does no work.
``figure5-warm``
    Set-up fills a private cache directory through the runner (the write
    path); each pass clears the in-process memos and regenerates the
    figure5 and figure678 rows from disk (the read path of the
    ``experiments.runner`` cache and the ``poly.memo`` disk layer). Small N,
    because the warm cost does not depend on N.

The workload seed picks the sweep's input seed from :data:`INPUT_SEEDS`
(the golden reports exist for exactly those) and, for ``registry-build``,
seeds the build-order shuffle.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from repro.exec.compiled import CompiledProgram
from repro.experiments import figure5, figure678, runner
from repro.experiments.sweep import QUICK_SIZES, default_config
from repro.kernels.recipes import all_recipes, build_variant, registry_build_matrix
from repro.kernels.registry import KERNELS, get_kernel
from repro.kernels.validation import ATOL, RTOL
from repro.pipeline.recipe import program_fingerprint

from tracing import Tracer, build_point

#: Sweep input seeds with golden reports; ``--seed`` selects one by modulo.
INPUT_SEEDS = (20050615, 7, 1, 2, 3, 4, 5, 6)

#: Problem sizes of the warm workload's grid.
WARM_SIZES = (12, 16, 20, 24)


def input_seed(seed: int) -> int:
    """The sweep input seed a workload seed selects."""
    return INPUT_SEEDS[seed % len(INPUT_SEEDS)]


def compare_report(label: str, got: dict, want: dict | None) -> list[str]:
    """Field-by-field exact comparison of one ``PerfReport`` dict."""
    if want is None:
        return [f"{label}: no golden report"]
    bad = [k for k in want if got.get(k) != want[k]]
    return [f"{label}: {k} = {got.get(k)!r}, golden {want[k]!r}" for k in bad]


class FigureWorkload:
    """Figure generation over a seeded sweep grid (cold or warm)."""

    def __init__(self, name: str, seed: int, golden: dict, sizes: tuple[int, ...]):
        self.name = name
        self.config = replace(
            default_config(quick=True), sizes=tuple(sizes), seed=input_seed(seed)
        )
        self.input_seed = self.config.seed
        self.golden = golden.get(str(self.input_seed), {})
        self.warm = name == "figure5-warm"
        self.generators = (figure5.generate, figure678.generate) if self.warm else (
            figure5.generate,
        )
        grid = [(k, v, n) for k in KERNELS for n in self.config.sizes for v in ("seq", "tiled")]
        if self.warm:
            grid += [(figure678.KERNEL, "tiled_sunk", n) for n in self.config.sizes]
        self.points = grid
        self.sim_events = 0

    def fill(self) -> None:
        """Compute every point once, writing the (private) disk cache."""
        runner.clear_caches()
        for generate in self.generators:
            generate(self.config)

    def prepare(self) -> None:
        runner.clear_caches()

    def run(self, tracer: Tracer | None = None) -> None:
        with tracer.patched() if tracer else nullcontext():
            for generate in self.generators:
                generate(self.config)

    def reports(self) -> dict[str, dict]:
        """Every grid point's report from the in-process memo."""
        return {
            f"{k}/{v}/N{n}": runner.measure_variant(k, v, n, self.config).report.as_dict()
            for k, v, n in self.points
        }

    def check(self) -> list[str]:
        failures = []
        events = 0
        for label, got in self.reports().items():
            failures += compare_report(label, got, self.golden.get(label))
            events += got["accesses"] + got["register_load_hits"] + got["branches_resolved"]
        # Simulated memory plus branch events: those of points the pass
        # computed; a warm pass simulates none.
        self.sim_events = 0 if self.warm else events
        return failures


class RegistryWorkload:
    """Cold build + traced compile of the whole registry build matrix."""

    name = "registry-build"

    def __init__(self, seed: int, golden: dict):
        self.golden = golden
        self.points = list(registry_build_matrix())
        self._rng = random.Random(seed)
        self.input_seed = None
        self._order: list = []
        self._built: dict[str, object] = {}
        self._errors: list[str] = []
        self.sim_events = 0

    def prepare(self) -> None:
        runner.clear_caches()
        self._order = self._rng.sample(self.points, len(self.points))
        self._built = {}
        self._errors = []

    def run(self, tracer: Tracer | None = None) -> None:
        manager = tracer.pass_manager_class()() if tracer else None
        compile_ = tracer.compiled_program if tracer else CompiledProgram
        for kernel, variant, tile in self._order:
            label = build_point(kernel, variant, tile)
            try:
                with tracer.at(label) if tracer else nullcontext():
                    program = build_variant(kernel, variant, tile=tile, manager=manager)
                    compile_(program, trace=True)
            except Exception as exc:  # one broken recipe must not hide the rest
                self._errors.append(f"{label}: {type(exc).__name__}: {exc}")
            else:
                self._built[label] = program

    def check(self) -> list[str]:
        failures = list(self._errors)
        for label, program in self._built.items():
            got, want = program_fingerprint(program), self.golden.get(label)
            if got != want:
                failures.append(f"{label}: program hash {got}, golden {want}")
        return failures


def make_workload(name: str, seed: int, golden: dict | None = None,
                  sizes: tuple[int, ...] | None = None):
    """Instantiate workload *name*, checked against *golden* (as
    :func:`golden.load_golden` returns it; ``sizes`` restricts a figure
    grid)."""
    golden = golden or {}
    if name == "registry-build":
        return RegistryWorkload(seed, golden)
    if name == "figure5-cold":
        return FigureWorkload(name, seed, golden, sizes or QUICK_SIZES)
    if name == "figure5-warm":
        return FigureWorkload(name, seed, golden, sizes or WARM_SIZES)
    raise ValueError(f"unknown workload {name!r}")


def load_registry() -> None:
    """Set-up work shared by every workload: import and load the recipes."""
    all_recipes()


def check_outputs(tracer: Tracer) -> list[str]:
    """Traced runs' kernel outputs against each kernel's NumPy reference."""
    failures = []
    for point, kernel, params, inputs, arrays in tracer.outputs:
        ref = get_kernel(kernel).reference(params, inputs)
        for name, got in arrays.items():
            if name in ref and not np.allclose(got, ref[name], rtol=RTOL, atol=ATOL):
                failures.append(f"{point}: output {name} differs from reference()")
    tracer.outputs.clear()
    return failures
