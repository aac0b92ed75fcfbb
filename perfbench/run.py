"""Benchmark of the reproduction: one command, three workloads.

    python3 perfbench/run.py --workload figure5-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the program not
instrumented, scaled to a reference host speed (hostspeed.py);
``--trace 1`` is a separate run that first repeats the untraced passes for
half the time, then traces passes for the other half and reports per-layer
self times, counts and the tracing overhead. Metric names, units and
directions come from ``BENCHMARK.json``; README.md says why each workload
and metric was chosen and which end-to-end number each layer metric should
move.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` (grid points or registry programs whose output
raised, differed from the golden data or, traced, from the kernel's NumPy
reference) and ``metrics``. The full record, with provenance and sample
distributions, goes to ``perfbench/out/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import env
from hostspeed import HostSpeed

WORKLOADS = ("figure5-cold", "registry-build", "figure5-warm")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = {"figure5-cold": 7, "registry-build": 7, "figure5-warm": 5}

#: Longest a set-up child may take before the run fails.
SETUP_TIMEOUT_S = 120

#: End-to-end numbers outside the contract line: zero or not applicable
#: on some workloads (see README.md).
EXTRA_UNITS = {"failed_ratio": "ratio", "sim_events_per_s": "1/s", "programs_per_s": "1/s"}

_clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- statistics ---------------------------------------------------------------


def summarize(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (``None`` below eleven samples), and the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered) if n else None, "n": n,
           "percentile": None, "percentile_value": None, "samples": samples}
    if n >= 11:
        out["percentile"] = 100 * (n - 10) // n
        out["percentile_value"] = ordered[n - 11]
    return out


def failed_points(failures: list[str]) -> int:
    """Distinct points named by failure messages (``"<point>: ..."``)."""
    return len({msg.split(":", 1)[0] for msg in failures})


# -- provenance ---------------------------------------------------------------


def provenance(args, input_seed: int) -> dict:
    import numpy as np

    commit = None
    if (env.ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(env.ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(env.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(env.SRC)).encode())
        digest.update(path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_digest": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": input_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "settings": env.resolved_settings(),
    }


# -- set-up ---------------------------------------------------------------------


def setup_child(args) -> None:
    """One set-up, run in a fresh process: imports, registry load and, for
    the warm workload, the cache fill."""
    env.pin_settings(args.setup_only if args.workload == "figure5-warm" else None)
    from workloads import load_registry, make_workload

    load_registry()
    wl = make_workload(args.workload, args.seed)
    if args.workload == "figure5-warm":
        wl.fill()


#: Calibration samples taken before each set-up child.
SETUP_SAMPLES = 3


def timed_setups(args, repeats: int, speed: HostSpeed) -> tuple[list[float], Path]:
    """Run *repeats* set-up children, sampling *speed* before each; their
    wall times, and the cache directory the last one filled."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    samples, cache_dir = [], None
    for i in range(repeats):
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
        cache_dir = env.OUT / f"cache-{os.getpid()}-{i}"
        speed.sample(SETUP_SAMPLES)
        t0 = _clock()
        subprocess.run(argv + ["--setup-only", str(cache_dir)], check=True,
                       timeout=SETUP_TIMEOUT_S, cwd=env.ROOT)
        samples.append(_clock() - t0)
    return samples, cache_dir


# -- measurement -------------------------------------------------------------------


class Tally:
    """Pass walls and correctness counts of one measuring loop."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.sim_events = 0
        self.failures: list[str] = []

    def add(self, wall: float, points: int, failures: list[str], sim_events: int) -> None:
        self.walls.append(wall)
        self.attempted += points
        self.failed += min(points, failed_points(failures))
        self.sim_events += sim_events
        self.failures += failures[: max(0, 20 - len(self.failures))]


def measure(wl, seconds: float, tally: Tally, tracer=None, speed=None) -> None:
    """Run whole passes until *seconds* have elapsed (at least one). With
    *speed*, sample the host throughout and take the sampling time out of
    the pass walls."""
    from repro.poly import memo as poly_memo
    from workloads import check_outputs

    with speed.sampling() if speed else nullcontext():
        start = _clock()
        while not tally.walls or _clock() - start < seconds:
            wl.prepare()
            spent = speed.spent if speed else 0.0
            try:
                if tracer is None:
                    t0 = _clock()
                    wl.run()
                    wall = _clock() - t0 - ((speed.spent - spent) if speed else 0.0)
                else:
                    with tracer.span("pass") as root:
                        wl.run(tracer)
                    wall = root.duration
            except Exception:
                if not tally.walls:
                    raise  # nothing measured: no result to report
                traceback.print_exc()
                tally.attempted += len(wl.points)
                tally.failed += len(wl.points)
                tally.failures.append(f"pass raised: {traceback.format_exc(limit=1)}")
                return
            if tracer is not None:
                totals = poly_memo.stats()["totals"]
                for key in ("hit", "miss", "disk_hit"):
                    tracer.count(f"poly.memo.{key}", totals[key])
            failures = wl.check()
            if tracer is not None:
                failures += check_outputs(tracer)
            tally.add(wall, len(wl.points), failures, wl.sim_events)


def end_to_end(args, wl, tally: Tally, setups: list[float],
               speed: HostSpeed) -> tuple[dict, dict]:
    """(contract metrics, full record) of an untraced run. Times are scaled
    to the reference host (hostspeed.py); the record keeps them raw too."""
    scale = speed.factor()
    walls = [wall * scale for wall in tally.walls]
    setups_scaled = [wall * scale for wall in setups]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Throughput is the median over passes, like wall_s: a mean over the
    # run lets a few passes slowed by the host swing the result.
    rates = [len(wl.points) / wall for wall in walls]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups_scaled),
        "peak_rss_mb": peak_rss_mb,
        "points_per_s": statistics.median(rates),
    }
    record = {
        "failed_ratio": tally.failed / tally.attempted,
        "sim_events_per_s": tally.sim_events / sum(walls) if args.workload == "figure5-cold" else None,
        "programs_per_s": metrics["points_per_s"] if args.workload == "registry-build" else None,
        "points_per_pass": len(wl.points),
        "host_scale": scale,
        "wall_s_samples": summarize(walls),
        "points_per_s_samples": summarize(rates),
        "setup_s_samples": summarize(setups_scaled),
        "raw_wall_s_samples": summarize(tally.walls),
        "raw_setup_s_samples": summarize(setups),
        "host_kernel_s_samples": summarize(speed.samples),
    }
    return metrics, record


def per_layer(tracer, traced: Tally, untraced: Tally) -> dict:
    """Per-layer metrics of the traced passes (per pass where a count or
    time; ratios over the whole traced run)."""
    from tracing import layer_seconds, self_times

    n = len(traced.walls)
    sec = layer_seconds(tracer.spans)
    c = tracer.counts

    def per_pass(key: str) -> float:
        return c.get(key, 0) / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    selfs = self_times(tracer.spans)
    load_s = sum(selfs[s.id] for s in tracer.spans
                 if s.name == "runner.measure" and s.attrs.get("source") == "disk")
    hits = c.get("poly.memo.hit", 0) + c.get("poly.memo.disk_hit", 0)
    traced_wall = statistics.median(traced.walls)
    untraced_wall = statistics.median(untraced.walls)
    m = {
        "pipeline.build_s": sec["pipeline.build"] / n,
        "pipeline.builds": per_pass("pipeline.builds"),
        "poly.memo.hit_ratio": ratio(hits, hits + c.get("poly.memo.miss", 0)),
        "poly.memo.disk_hits": per_pass("poly.memo.disk_hit"),
        "exec.compile_s": sec["exec.compile"] / n,
        "exec.block_loops": per_pass("exec.block_loops"),
        "exec.scalar_loops": per_pass("exec.scalar_loops"),
        "exec.fallbacks.guard_rejected": per_pass("exec.fallbacks.guard_rejected"),
        "exec.fallbacks.below_min_trip": per_pass("exec.fallbacks.below_min_trip"),
        "exec.produce_s": sec["exec.produce"] / n,
        "exec.memory_events": per_pass("machine.decode.events"),
        "exec.branch_events": per_pass("machine.branch.events"),
        "exec.memory_chunks": per_pass("machine.decode.calls"),
        "exec.events_per_chunk": ratio(c.get("machine.decode.events", 0),
                                       c.get("machine.decode.calls", 0)),
    }
    for stage in ("decode", "layout", "regwin", "l1", "l2", "branch"):
        m[f"machine.{stage}_s"] = sec[f"machine.{stage}"] / n
    m["machine.l2_events_per_chunk"] = ratio(c.get("machine.l2.events", 0),
                                             c.get("machine.l2.calls", 0))
    for stage in ("regwin", "l1", "l2", "branch"):
        m[f"machine.{stage}_events_per_s"] = ratio(
            c.get(f"machine.{stage}.events", 0), sec[f"machine.{stage}"]
        )
    m.update({
        "runner.self_s": sec["runner.self"] / n,
        "runner.load_s": load_s / n,
        "runner.cache_hits": per_pass("runner.cache_hits"),
        "runner.cache_misses": per_pass("runner.cache_misses"),
        "other_s": sec["other"] / n,
        "trace.wall_s": sum(traced.walls) / n,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return m


def write_trace(out_dir, tracer, traced: Tally) -> str:
    """Spans as JSONL and Chrome trace; returns the per-layer table."""
    from tracing import layer_seconds, layer_table, write_chrome, write_jsonl

    write_jsonl(tracer.spans, out_dir / "spans.jsonl")
    write_chrome(tracer.spans, out_dir / "trace_chrome.json", os.getpid())
    c = tracer.counts
    events = {
        "pipeline.build": c.get("pipeline.builds", 0),
        "exec.compile": c.get("exec.compiles", 0),
        "runner.self": c.get("runner.measures", 0),
        "exec.produce": c.get("machine.decode.events", 0) + c.get("machine.branch.events", 0),
        **{f"machine.{s}": c.get(f"machine.{s}.events", 0)
           for s in ("decode", "layout", "regwin", "l1", "l2", "branch")},
    }
    table = layer_table(layer_seconds(tracer.spans), events, sum(traced.walls))
    (out_dir / "layers.txt").write_text(table + "\n")
    return table


def contract_line(spec: list[dict], values: dict, tally: Tally) -> str:
    """The last stdout line: every declared metric, with its unit."""
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    return json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    })


def untraced_run(args, wl, setups: list[float], speed: HostSpeed, spec: dict):
    """Measure the end-to-end metrics and print them with their units."""
    tally = Tally()
    measure(wl, args.seconds, tally, speed=speed)
    values, extra = end_to_end(args, wl, tally, setups, speed)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | EXTRA_UNITS
    for name, unit in units.items():
        value = values.get(name, extra.get(name))
        print(f"{name:18s} {'n/a' if value is None else value} {unit}")
    return "end_to_end", values, extra, tally


def traced_run(args, wl, out_dir):
    """Untraced passes for half the time, traced passes for the other half;
    per-layer metrics, trace artefacts and the layer table."""
    from tracing import Tracer

    untraced, traced, tracer = Tally(), Tally(), Tracer()
    measure(wl, args.seconds / 2, untraced)
    measure(wl, args.seconds / 2, traced, tracer)
    values = per_layer(tracer, traced, untraced)
    extra = {"untraced_wall_s_samples": summarize(untraced.walls),
             "traced_wall_s_samples": summarize(traced.walls)}
    print(write_trace(out_dir, tracer, traced))
    tally = Tally()
    tally.attempted = untraced.attempted + traced.attempted
    tally.failed = untraced.failed + traced.failed
    tally.failures = untraced.failures + traced.failures
    return "per_layer", values, extra, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    env.use_checkout_source()
    if args.setup_only:
        setup_child(args)
        return 0
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    env.OUT.mkdir(parents=True, exist_ok=True)
    repeats = 1 if args.trace else SETUP_REPEATS[args.workload]
    cache_dir = None
    try:
        speed = HostSpeed()
        setups, cache_dir = timed_setups(args, repeats, speed)
        env.pin_settings(cache_dir if args.workload == "figure5-warm" else None)
        from golden import load_golden
        from workloads import load_registry, make_workload

        load_registry()
        wl = make_workload(args.workload, args.seed, load_golden(args.workload))
        prov = provenance(args, wl.input_seed)
        print(json.dumps({"provenance": prov}))
        out_dir = env.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.trace:
            spec_key, values, extra, tally = traced_run(args, wl, out_dir)
        else:
            spec_key, values, extra, tally = untraced_run(args, wl, setups, speed, spec)
        for msg in tally.failures:
            print(f"FAILED {msg}", file=sys.stderr)
        record = {"provenance": prov, "attempted": tally.attempted, "failed": tally.failed,
                  "failures": tally.failures, "metrics": values, **extra}
        (out_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
        print(contract_line(spec[spec_key], values, tally))
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
