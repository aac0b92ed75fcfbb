"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import env  # noqa: E402

env.use_checkout_source()
env.pin_settings(None)

import hostspeed  # noqa: E402
import run  # noqa: E402
from golden import load_golden  # noqa: E402
from tracing import LAYERS, Tracer, layer_seconds, wall_seconds  # noqa: E402
import workloads  # noqa: E402
from workloads import make_workload  # noqa: E402

from repro.exec.compiled import CompiledProgram  # noqa: E402
from repro.experiments.sweep import default_config  # noqa: E402
from repro.kernels.recipes import build_variant  # noqa: E402
from repro.kernels.registry import get_kernel  # noqa: E402
from repro.machine.perfcounters import measure_streaming  # noqa: E402

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = env.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(autouse=True)
def _restore_environment():
    saved = dict(os.environ)
    yield
    os.environ.clear()
    os.environ.update(saved)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["figure5-cold", "registry-build", "figure5-warm"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "QUICK_SIZES", (24,))  # tiny N for figure5-cold
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", trace]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace == "0":
        printed = {line.split()[0]: line.split()[-1] for line in lines[1:-1]}
        assert printed == {m["name"]: m["unit"] for m in spec} | run.EXTRA_UNITS
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "figure5-warm", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", ["figure5-warm", "registry-build"])
def test_corrupted_golden_entry_counts_as_failed(workload):
    golden = load_golden(workload)
    if workload == "registry-build":
        golden["lu/seq"] = "0" * 32
    else:
        golden["20050615"]["lu/seq/N12"]["l1_misses"] += 1
    wl = make_workload(workload, 0, golden, sizes=(12,))
    tally = run.Tally()
    run.measure(wl, 0, tally)
    assert tally.failed == 1 and tally.attempted == len(wl.points)
    assert any(msg.startswith("lu/seq") for msg in tally.failures)


class _BusyWorkload:
    """One point per pass; a pass burns one second of CPU time."""

    points = ["busy"]
    sim_events = 0

    def prepare(self):
        pass

    def run(self):
        t0 = time.thread_time()
        while time.thread_time() - t0 < 1.0:
            pass

    def check(self):
        return []


def test_host_sampling_is_taken_out_of_pass_walls(monkeypatch):
    # A sample that sleeps costs wall time but no CPU time.
    monkeypatch.setattr(hostspeed, "kernel", lambda: time.sleep(0.1))
    speed, tally = hostspeed.HostSpeed(), run.Tally()
    run.measure(_BusyWorkload(), 0, tally, speed=speed)
    assert len(speed.samples) >= 1
    assert speed.spent >= 0.1 * len(speed.samples)
    assert tally.walls[0] == pytest.approx(1.0, abs=0.05)


def test_end_to_end_times_are_scaled_to_the_reference_host():
    speed = hostspeed.HostSpeed()
    speed.samples = [2 * hostspeed.REFERENCE_S] * 3  # a host half as fast
    tally = run.Tally()
    for wall in (1.0, 3.0, 2.0):
        tally.add(wall, 1, [], 0)
    metrics, record = run.end_to_end(Namespace(workload="registry-build"), _BusyWorkload(),
                                     tally, [4.0, 6.0, 5.0], speed)
    assert metrics["wall_s"] == pytest.approx(1.0)
    assert metrics["setup_s"] == pytest.approx(2.5)
    assert metrics["points_per_s"] == pytest.approx(1.0)
    assert record["raw_wall_s_samples"]["median"] == 2.0


@pytest.mark.parametrize(
    "kernel,variant,n",
    [("lu", "seq", 40), ("qr", "tiled", 24), ("cholesky", "tiled_sunk", 24),
     ("jacobi", "tiled", 40)],
)
def test_composed_traced_pipeline_equals_measure_streaming(kernel, variant, n):
    config = default_config(quick=True)
    tile = None if variant == "seq" else config.tile_for(n)
    cp = CompiledProgram(build_variant(kernel, variant, tile=tile), trace=True)
    params = {"N": n, **({"M": config.jacobi_m} if kernel == "jacobi" else {})}
    inputs = get_kernel(kernel).make_inputs(params, np.random.default_rng(3))
    _, want = measure_streaming(cp, params, config.machine, inputs)
    tracer = Tracer()
    with tracer.span("pass"):
        _, got = tracer.measure_streaming(cp, params, config.machine, inputs)
    assert got == want
    assert tracer.counts["machine.decode.events"] == want.accesses + want.register_load_hits
    assert tracer.counts.get("machine.branch.events", 0) == want.branches_resolved


@pytest.mark.parametrize(
    "workload,sizes",
    [("figure5-cold", (24,)), ("registry-build", None), ("figure5-warm", (12,))],
)
def test_layer_self_times_and_other_sum_to_traced_wall(workload, sizes, tmp_path, monkeypatch):
    wl = make_workload(workload, 1, load_golden(workload), sizes)
    if workload == "figure5-warm":
        monkeypatch.delenv("REPRO_NO_CACHE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        wl.fill()
    untraced, traced, tracer = run.Tally(), run.Tally(), Tracer()
    run.measure(wl, 0, untraced)
    run.measure(wl, 0, traced, tracer)
    assert traced.failed == 0 and traced.attempted == len(wl.points)
    seconds = layer_seconds(tracer.spans)
    assert sum(seconds.values()) == pytest.approx(wall_seconds(tracer.spans), rel=1e-9)
    metrics = run.per_layer(tracer, traced, untraced)
    names = [f"{layer}_s" for layer in LAYERS if layer != "other"] + ["other_s"]
    assert sum(metrics[n] for n in names) == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    machine = [n for n in names if n.startswith("machine.")]
    if workload == "figure5-cold":
        assert all(metrics[n] > 0 for n in machine + ["exec.produce_s", "pipeline.build_s"])
        assert metrics["runner.cache_misses"] == len(wl.points)
    else:
        assert all(metrics[n] == 0 for n in machine)
    if workload == "figure5-warm":
        assert metrics["runner.cache_hits"] == len(wl.points)
        assert metrics["poly.memo.disk_hits"] > 0
