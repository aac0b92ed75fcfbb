"""Content fingerprints: stability, sensitivity, and the runner's
fingerprint-keyed disk store."""

import dataclasses
import json

from repro.experiments import clear_caches, measure_variant, runner
from repro.experiments.sweep import SweepConfig
from repro.kernels.recipes import build_variant, get_recipe
from repro.machine.configs import octane2_scaled
from repro.pipeline import (
    machine_fingerprint,
    measurement_fingerprint,
    program_fingerprint,
)


def test_recipe_fingerprint_is_stable():
    a = get_recipe("lu", "tiled").fingerprint()
    b = get_recipe("lu", "tiled").fingerprint()
    assert a == b
    assert get_recipe("lu", "tiled_sunk").fingerprint() != a


def test_program_fingerprint_tracks_tile():
    assert program_fingerprint(
        build_variant("cholesky", "tiled", tile=4)
    ) != program_fingerprint(build_variant("cholesky", "tiled", tile=8))


def test_machine_fingerprint_tracks_costs():
    machine = octane2_scaled()
    bumped = dataclasses.replace(
        machine,
        costs=dataclasses.replace(
            machine.costs, l2_miss_cycles=machine.costs.l2_miss_cycles + 1
        ),
    )
    assert machine_fingerprint(machine) != machine_fingerprint(bumped)
    # ... and the full measurement key follows
    recipe = get_recipe("cholesky", "seq")
    program = build_variant("cholesky", "seq")
    run = {"params": {"N": 12}, "tile": None, "seed": 0}
    program_fp = program_fingerprint(program)
    assert measurement_fingerprint(
        recipe, program_fp, machine, run
    ) != measurement_fingerprint(recipe, program_fp, bumped, run)


def _point_keys(directory):
    [store] = directory.glob("store-*.jsonl")
    keys = [json.loads(line)["k"] for line in store.read_text().splitlines()]
    return [k for k in keys if k.startswith("point|cholesky-seq-N12-")]


def test_disk_cache_roundtrip_and_invalidation(tmp_path, monkeypatch):
    """A second identical run reads the fingerprint-keyed entry; a cost
    model change auto-invalidates it (different key, no stale read)."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    config = SweepConfig(
        machine=octane2_scaled(), sizes=(12,), jacobi_m=2, tile_policy="pdat"
    )
    clear_caches()
    first = measure_variant("cholesky", "seq", 12, config)
    assert len(_point_keys(tmp_path)) == 1

    clear_caches()
    with monkeypatch.context() as m:
        m.setattr(runner, "measure_streaming", None)  # a disk hit or a crash
        again = measure_variant("cholesky", "seq", 12, config)
    assert again.report == first.report

    clear_caches()
    machine = config.machine
    bumped = dataclasses.replace(
        machine,
        costs=dataclasses.replace(
            machine.costs, l2_miss_cycles=machine.costs.l2_miss_cycles * 2
        ),
    )
    changed = measure_variant(
        "cholesky", "seq", 12,
        dataclasses.replace(config, machine=bumped),
    )
    # new key on disk, and the numbers actually moved
    assert len(_point_keys(tmp_path)) == 2
    assert changed.report.total_cycles != first.report.total_cycles


def test_measurement_carries_pipeline_report(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    clear_caches()
    config = SweepConfig(
        machine=octane2_scaled(), sizes=(12,), jacobi_m=2, tile_policy="pdat"
    )
    m = measure_variant("lu", "tiled", 12, config)
    assert m.pipeline is not None
    assert [r.name for r in m.pipeline.records] == [
        "Source", "Fuse", "FixDeps", "ExpandScalar", "Tile", "UndoSinking"
    ]
