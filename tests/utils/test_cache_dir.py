"""The measurement runner and the analysis memo share one disk store,
placed by :func:`repro.utils.caching.disk_cache_dir`; with the cache off
the store is never read, written or salted."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.experiments.sweep import default_config
from repro.poly import memo
from repro.utils import caching

CONFIG = replace(default_config(quick=True), sizes=(8,))


def _store_keys(directory: Path) -> list[str]:
    [store] = directory.glob("store-*.jsonl")
    return [json.loads(line)["k"] for line in store.read_text().splitlines()]


@pytest.mark.parametrize("case", ["off", "custom", "default"])
def test_runner_and_memo_agree(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("REPRO_POLY_CACHE", "on")
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    expected = {"off": None, "custom": Path("custom"), "default": Path(".repro_cache")}[case]
    planted = Path(".repro_cache") / f"store-{caching.code_salt()}.jsonl"
    if case == "off":
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        # A cache-off process never reads an existing store, nor salts one.
        planted.parent.mkdir()
        planted.write_text('{"k": "t|k", "v": 7}\n')

        def no_salt():
            raise AssertionError("salt computed with the disk cache off")

        monkeypatch.setattr(caching, "code_salt", no_salt)
    elif case == "custom":
        monkeypatch.setenv("REPRO_CACHE_DIR", "custom")
    runner.clear_caches()
    assert memo.memoize_json("t", ("k",), lambda: 1, encode=int, decode=int) == 1
    runner.measure_variant("cholesky", "seq", 8, CONFIG)
    runner.clear_caches()
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    if expected is None:
        assert written == [planted]
        assert planted.read_text() == '{"k": "t|k", "v": 7}\n'
        assert caching.disk_store.get("t", "k") is caching.MISS
    else:
        assert written == [expected / planted.name]
        keys = _store_keys(tmp_path / expected)
        assert keys[0] == "t|k"
        assert [k.split("-N8-")[0] for k in keys if k.startswith("point|")] == [
            "point|cholesky-seq"
        ]
        assert caching.disk_store.get("t", "k") == 1
