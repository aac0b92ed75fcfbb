"""Process settings shared by the benchmark's entry points.

Every ``REPRO_*`` setting is reset to its default before ``repro`` is
imported, so a knob left in the caller's environment cannot change what is
measured; the workload then sets only its cache location. The committed
``.repro_cache`` is never read: cold workloads run with the disk cache off
and the warm workload fills a private directory.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Root of the checkout the benchmark measures.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes: results, traces, private cache directories.
OUT = Path(__file__).resolve().parent / "out"


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit 2 if absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))


def pin_settings(cache_dir: Path | None) -> None:
    """Drop every ``REPRO_*`` variable; then either disable the disk cache
    (``cache_dir`` None) or point it at *cache_dir*."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if cache_dir is None:
        os.environ["REPRO_NO_CACHE"] = "1"
    else:
        os.environ["REPRO_CACHE_DIR"] = str(cache_dir)


def resolved_settings() -> dict:
    """The effective value of every setting, as the program resolves it."""
    from repro import telemetry
    from repro.exec.compiled import resolve_exec_mode, resolve_min_block_trip
    from repro.experiments import runner
    from repro.experiments.sweep import default_config, resolve_jobs
    from repro.poly import memo

    config = default_config(quick=True)
    return {
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "exec_mode": resolve_exec_mode(),
        "block_min_trip": resolve_min_block_trip(),
        "jobs": resolve_jobs(),
        "trace_mode": runner._trace_mode(None),
        "poly_cache": memo.caching_enabled(),
        "poly_memo_size": memo._memo_size(),
        "telemetry": telemetry.enabled(),
        "machine": config.machine.name,
        "quick_sizes": list(config.sizes),
        "jacobi_m": config.jacobi_m,
        "tile_policy": config.tile_policy,
    }
