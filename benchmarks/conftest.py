"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures through the
full pipeline (kernel build -> traced execution -> machine simulation) and
attaches the regenerated rows/series to the benchmark record via
``extra_info``, so ``--benchmark-json`` output contains the reproduced
numbers alongside the timings.

Measurements are disk-cached across processes (the source-salted store
in ``.repro_cache``) because a full sweep point costs seconds; any edit to
the ``repro`` source starts a fresh store, and ``REPRO_NO_CACHE=1`` forces
clean re-measurement.
"""

from __future__ import annotations

import pytest

from repro.experiments.sweep import SweepConfig, default_config


@pytest.fixture(scope="session")
def sweep_config() -> SweepConfig:
    """Quick sweep by default; REPRO_FULL_SWEEP=1 for the full curve."""
    return default_config()
