"""Golden correctness data of the benchmark, and how to regenerate it.

``golden/figure5-cold.json`` and ``golden/figure5-warm.json`` hold the
14-field ``PerfReport`` of every grid point per input seed;
``golden/registry.json`` holds the 43 ``registry_program_hashes()``.
All were produced by the program's own untraced paths
(``measure_streaming`` through the sweep runner). Regenerate with::

    python3 perfbench/golden.py            # rewrite the golden files
    python3 perfbench/golden.py --cross-check

``--cross-check`` compares the goldens with ``results/figure5.csv`` (cycles
of the default seed) and with a ``REPRO_POLY_CACHE=off`` run (the analysis
cache's differential oracle), and records the outcome in
``golden/cross-check.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import env

GOLDEN = Path(__file__).resolve().parent / "golden"
#: Golden file per workload.
FILES = {"figure5-cold": "figure5-cold.json", "figure5-warm": "figure5-warm.json",
         "registry-build": "registry.json"}


def load_golden(workload: str) -> dict:
    """The golden data of *workload*."""
    return json.loads((GOLDEN / FILES[workload]).read_text())


def _figure_reports(name: str) -> dict:
    from workloads import INPUT_SEEDS, make_workload

    out = {}
    for index, seed in enumerate(INPUT_SEEDS):
        wl = make_workload(name, index)
        wl.fill()
        out[str(seed)] = wl.reports()
        print(f"{name}: seed {seed} done", file=sys.stderr)
    return out


def _write(key: str, data: dict) -> None:
    (GOLDEN / FILES[key]).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def regenerate() -> None:
    from repro.kernels.recipes import registry_program_hashes

    GOLDEN.mkdir(exist_ok=True)
    _write("registry-build", registry_program_hashes())
    _write("figure5-warm", _figure_reports("figure5-warm"))
    _write("figure5-cold", _figure_reports("figure5-cold"))


def _oracle() -> dict:
    """Registry hashes and default-seed figure5 reports of this process."""
    from repro.kernels.recipes import registry_program_hashes
    from workloads import make_workload

    wl = make_workload("figure5-cold", 0)
    wl.fill()
    return {"registry": registry_program_hashes(), "figure5-cold": wl.reports()}


def cross_check() -> dict:
    hashes = load_golden("registry-build")
    default = load_golden("figure5-cold")["20050615"]
    with open(env.ROOT / "results" / "figure5.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if f"{r['kernel']}/seq/N{r['n']}" in default]
    csv_equal = sum(
        float(r["seq_cycles"]) == default[f"{r['kernel']}/seq/N{r['n']}"]["total_cycles"]
        and float(r["tiled_cycles"]) == default[f"{r['kernel']}/tiled/N{r['n']}"]["total_cycles"]
        for r in rows
    )
    child_env = dict(os.environ, REPRO_POLY_CACHE="off")
    proc = subprocess.run(
        [sys.executable, __file__, "--oracle"], env=child_env, cwd=env.ROOT,
        capture_output=True, text=True, check=True,
    )
    oracle = json.loads(proc.stdout.splitlines()[-1])
    hashes_equal = sum(oracle["registry"].get(k) == v for k, v in hashes.items())
    reports_equal = sum(
        oracle["figure5-cold"].get(k) == v for k, v in default.items()
    )
    result = {
        "results/figure5.csv": f"{csv_equal}/{len(rows)} rows with equal seq and tiled cycles",
        "REPRO_POLY_CACHE=off registry hashes": f"{hashes_equal}/{len(hashes)} equal",
        "REPRO_POLY_CACHE=off figure5 reports (seed 20050615)":
            f"{reports_equal}/{len(default)} equal",
    }
    (GOLDEN / "cross-check.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cross-check", action="store_true")
    parser.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    env.use_checkout_source()
    poly_cache = os.environ.get("REPRO_POLY_CACHE") if args.oracle else None
    env.pin_settings(None)
    if poly_cache:
        os.environ["REPRO_POLY_CACHE"] = poly_cache
    if args.oracle:
        print(json.dumps(_oracle()))
    elif args.cross_check:
        print(json.dumps(cross_check(), indent=1))
    else:
        regenerate()


if __name__ == "__main__":
    main()
