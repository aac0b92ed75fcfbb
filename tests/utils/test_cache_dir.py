"""The measurement cache and the analysis memo agree on the disk-cache
directory: both resolve it through :func:`repro.utils.caching.disk_cache_dir`."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import runner
from repro.machine.perfcounters import PerfReport
from repro.poly import memo

REPORT = PerfReport("p", "m", *range(7), *(float(x) for x in range(5)))


def _layers(tmp_path) -> tuple[Path | None, Path | None]:
    """(directory the runner stored a report in, the memo file's
    directory); None where a layer persists nothing."""
    runner._store_cached("k", REPORT)
    stored = [p.parent for p in tmp_path.rglob("k.json")]
    memo_path = memo._resolve_disk_path()
    return (stored[0] if stored else None), (
        None if memo_path is None else memo_path.parent
    )


@pytest.mark.parametrize("case", ["off", "custom", "default"])
def test_runner_and_memo_agree(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    expected = {"off": None, "custom": Path("custom"), "default": Path(".repro_cache")}[case]
    if case == "off":
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        # A cache-off runner also never reads an existing entry.
        (tmp_path / ".repro_cache").mkdir()
        (tmp_path / ".repro_cache" / "k.json").write_text(json.dumps(REPORT.as_dict()))
        assert runner._load_cached("k") is None
        (tmp_path / ".repro_cache" / "k.json").unlink()
    elif case == "custom":
        monkeypatch.setenv("REPRO_CACHE_DIR", "custom")
    stored, memo_dir = _layers(tmp_path)
    assert memo_dir == expected
    if expected is None:
        assert stored is None
    else:
        assert stored == tmp_path / expected
        assert runner._load_cached("k") == REPORT
