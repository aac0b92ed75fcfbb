"""Every cached number is a function of the code: a simulator edit that
changes no cache-key input still changes what ``figure5`` prints from a
store filled by the unedited code."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import repro

REGISTER_FILTER = "keep = ~hit | is_write"


def _figure5(src: Path, cwd: Path, **env: str) -> str:
    clean = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    clean.update(PYTHONPATH=str(src), REPRO_SIZES="12", **env)
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", "figure5"],
        cwd=cwd, env=clean, capture_output=True, text=True, check=True,
    ).stdout


def test_simulator_edit_invalidates_the_store(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(
        Path(repro.__file__).parent, src / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    cache = str(tmp_path / "cache")
    cold = _figure5(src, tmp_path, REPRO_CACHE_DIR=cache)
    assert _figure5(src, tmp_path, REPRO_CACHE_DIR=cache) == cold  # warm

    # Disable the register filter: every load goes to memory. Cycles
    # change, while recipe, program, machine and run parameters do not.
    registers = src / "repro" / "machine" / "registers.py"
    text = registers.read_text()
    assert text.count(REGISTER_FILTER) == 1
    registers.write_text(text.replace(REGISTER_FILTER, "keep = np.ones_like(hit)"))

    edited = _figure5(src, tmp_path, REPRO_CACHE_DIR=cache)
    assert edited != cold
    assert edited == _figure5(src, tmp_path, REPRO_NO_CACHE="1")
