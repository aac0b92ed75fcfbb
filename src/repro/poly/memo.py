"""Process-wide memoisation for the exact polyhedral engine.

Every expensive polyhedral operation (Fourier–Motzkin elimination and
projection, rational emptiness, integer feasibility, parametric lexmin)
is a pure function of immutable inputs, so its result can be keyed by the
inputs' structural fingerprints and reused:

- **in process** through one capped LRU memo (`REPRO_POLY_MEMO_SIZE`,
  default 65536 entries), shared by all operations and cleared by
  :func:`clear_memos` (which `repro.experiments.clear_caches` calls, so
  sweep-pool workers start from a clean slate);
- **across processes** through a JSONL side file in the measurement disk
  cache directory (``REPRO_CACHE_DIR``, default ``.repro_cache``) for the
  operations whose results are cheap to serialise — feasibility verdicts,
  emptiness bits, lexmin solutions, projections, dependence-graph edges.
  Appends are single ``write()`` calls so concurrent sweep workers can
  share the file; unreadable lines are skipped (and counted), never
  trusted.

Negative results are cached too: a ``CaseSplitError`` raised by the
parametric solver is as expensive to rediscover as a solution, and
``lexmin_with_fallback`` branches on it, so cached errors re-raise with
the original message.

``REPRO_POLY_CACHE=off`` disables everything in this module (memo, disk,
hash-consing, and the FM unit-coefficient fast path) and is the
differential oracle: an ``off`` build must produce byte-identical
dependence graphs, FixDeps output and program hashes — asserted by
``tests/experiments/test_poly_cache_differential.py`` and a CI job.
``REPRO_NO_CACHE=1`` disables only the disk layer (same knob as the
measurement cache). Bump :data:`DISK_FORMAT_VERSION` when an analysis
algorithm changes its answers: fingerprints cover the *inputs* of an
operation, not its implementation.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from repro import telemetry
from repro.errors import CaseSplitError, PolyhedronError, UnboundedError
from repro.utils.caching import LRUCache, disk_cache_dir

#: Bump when FM / feasibility / lexmin semantics change, so persisted
#: answers from older code are never read again (new filename).
DISK_FORMAT_VERSION = 1

_DEFAULT_MEMO_SIZE = 65536

#: Deterministic analysis failures worth caching (re-raised on hit).
_CACHEABLE_ERRORS = (CaseSplitError, UnboundedError, PolyhedronError)
_ERROR_BY_NAME = {
    "CaseSplitError": CaseSplitError,
    "UnboundedError": UnboundedError,
    "PolyhedronError": PolyhedronError,
}


_enabled: bool | None = None


def caching_enabled() -> bool:
    """Is the analysis-layer cache on? (``REPRO_POLY_CACHE``, default on.)

    The answer is cached — this sits on every ``Constraint``/``Polyhedron``
    construction — and re-read from the environment by :func:`clear_memos`,
    so toggling ``REPRO_POLY_CACHE`` mid-process requires a
    ``clear_caches()``/``clear_memos()`` call (as the sweep pool
    initializer and the tests already do).
    """
    global _enabled
    if _enabled is None:
        _enabled = os.environ.get("REPRO_POLY_CACHE", "on").lower() not in (
            "off", "0", "no", "false",
        )
    return _enabled


def _memo_size() -> int:
    raw = os.environ.get("REPRO_POLY_MEMO_SIZE", "")
    try:
        size = int(raw)
    except ValueError:
        size = 0
    return size if size > 0 else _DEFAULT_MEMO_SIZE


_memo: LRUCache = LRUCache(maxsize=_memo_size())

#: Extra caches (hash-consing intern tables, …) cleared with the memo.
_registered: list[LRUCache] = []

#: Per-operation hit/miss/disk-hit counts, always maintained (telemetry
#: counters mirror the aggregates only while telemetry is enabled).
_stats: dict[str, dict[str, int]] = {}


def register_cache(cache: LRUCache) -> LRUCache:
    """Register an auxiliary cache for :func:`clear_memos` to clear."""
    _registered.append(cache)
    return cache


def _count(op: str, outcome: str) -> None:
    per_op = _stats.setdefault(op, {"hit": 0, "miss": 0, "disk_hit": 0})
    per_op[outcome] += 1
    telemetry.counter(f"poly.memo.{outcome}")


class _Raise:
    """Memo entry wrapping a cached (deterministic) analysis error."""

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc


def memoize(op: str, key: tuple, compute: Callable[[], Any]) -> Any:
    """In-process memoisation of ``compute()`` under ``(op, *key)``.

    Deterministic analysis errors (:data:`_CACHEABLE_ERRORS`) are cached
    and re-raised on later hits.
    """
    if not caching_enabled():
        return compute()
    full = (op, *key)
    try:
        value = _memo[full]
    except KeyError:
        pass
    else:
        _count(op, "hit")
        if type(value) is _Raise:
            raise value.exc
        return value
    _count(op, "miss")
    try:
        value = compute()
    except _CACHEABLE_ERRORS as exc:
        _memo[full] = _Raise(exc)
        raise
    _memo[full] = value
    return value


def memoize_json(
    op: str,
    key: tuple,
    compute: Callable[[], Any],
    *,
    encode: Callable[[Any], Any],
    decode: Callable[[Any], Any],
) -> Any:
    """Like :func:`memoize`, with a disk layer under the in-process memo.

    ``encode``/``decode`` round-trip the result through JSON; cached
    errors are encoded structurally and re-raised on disk hits as well.
    """
    if not caching_enabled():
        return compute()
    full = (op, *key)
    try:
        value = _memo[full]
    except KeyError:
        pass
    else:
        _count(op, "hit")
        if type(value) is _Raise:
            raise value.exc
        return value
    disk_key = op + "|" + "|".join(str(part) for part in key)
    store = _disk_entries()
    if store is not None and disk_key in store:
        _count(op, "disk_hit")
        telemetry.counter("poly.disk.hit")
        payload = store[disk_key]
        if isinstance(payload, dict) and "!exc" in payload:
            exc = _ERROR_BY_NAME.get(payload["!exc"], PolyhedronError)(
                payload.get("m", "")
            )
            _memo[full] = _Raise(exc)
            raise exc
        value = decode(payload)
        _memo[full] = value
        return value
    _count(op, "miss")
    try:
        value = compute()
    except _CACHEABLE_ERRORS as exc:
        _memo[full] = _Raise(exc)
        _disk_put(disk_key, {"!exc": type(exc).__name__, "m": str(exc)})
        raise
    _memo[full] = value
    _disk_put(disk_key, encode(value))
    return value


# -- disk layer ------------------------------------------------------------

_disk_path: Path | None = None
_disk_cache: dict[str, Any] | None = None


def _resolve_disk_path() -> Path | None:
    base = disk_cache_dir()
    return None if base is None else base / f"polymemo-v{DISK_FORMAT_VERSION}.jsonl"


def _disk_entries() -> dict[str, Any] | None:
    """The persisted entry mapping (loaded once per resolved path)."""
    global _disk_path, _disk_cache
    path = _resolve_disk_path()
    if path is None:
        return None
    if _disk_cache is not None and path == _disk_path:
        return _disk_cache
    entries: dict[str, Any] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                try:
                    record = json.loads(line)
                    entries[record["k"]] = record["v"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    # Torn concurrent append or manual edit: skip, count.
                    telemetry.counter("poly.disk.corrupt")
    except OSError:
        pass
    _disk_path = path
    _disk_cache = entries
    return entries


def _disk_put(key: str, payload: Any) -> None:
    store = _disk_entries()
    if store is None or key in store:
        return
    store[key] = payload
    path = _disk_path
    assert path is not None
    line = json.dumps({"k": key, "v": payload}, separators=(",", ":")) + "\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # One write() call in append mode: concurrent sweep workers may
        # interleave whole lines but never tear one another's entries
        # apart in practice; the loader skips anything unparseable.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line)
    except OSError:
        pass


# -- lifecycle / stats -----------------------------------------------------


def clear_memos() -> None:
    """Drop every in-process analysis memo and intern table.

    The disk layer is untouched but will be re-read lazily, so a cleared
    process (or a freshly forked sweep worker) observes exactly the
    persisted state plus its own work.
    """
    global _memo, _disk_cache, _disk_path, _stats, _enabled
    _memo = LRUCache(maxsize=_memo_size())
    for cache in _registered:
        cache.clear()
    _disk_cache = None
    _disk_path = None
    _stats = {}
    _enabled = None


def stats() -> dict[str, Any]:
    """Hit/miss counters per operation plus memo occupancy (for benches,
    tests and the telemetry summary)."""
    totals = {"hit": 0, "miss": 0, "disk_hit": 0}
    for per_op in _stats.values():
        for k in totals:
            totals[k] += per_op[k]
    return {
        "enabled": caching_enabled(),
        "ops": {op: dict(v) for op, v in sorted(_stats.items())},
        "totals": totals,
        "memo_entries": len(_memo),
        "disk_entries": len(_disk_cache) if _disk_cache is not None else 0,
    }


def stable_key(data: Any) -> str:
    """Short stable digest of any JSON-serialisable value."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


# -- codecs ----------------------------------------------------------------


def _frac_pair(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def enc_linexpr(expr) -> dict[str, Any]:
    """JSON form of a LinExpr (exact rational coefficients)."""
    return {
        "t": {v: _frac_pair(c) for v, c in expr.terms_items()},
        "c": _frac_pair(expr.constant),
    }


def dec_linexpr(payload: dict[str, Any]):
    from repro.poly.linexpr import LinExpr

    terms = {v: Fraction(n, d) for v, (n, d) in payload["t"].items()}
    n, d = payload["c"]
    return LinExpr(terms, Fraction(n, d))


def enc_constraint(con) -> dict[str, Any]:
    return {"k": con.kind.value, "e": enc_linexpr(con.expr)}


def dec_constraint(payload: dict[str, Any]):
    from repro.poly.constraint import Constraint, Kind

    return Constraint(dec_linexpr(payload["e"]), Kind(payload["k"]))


def enc_poly(poly) -> dict[str, Any]:
    """JSON form of a Polyhedron, preserving constraint order."""
    return {
        "v": list(poly.variables),
        "c": [enc_constraint(c) for c in poly.constraints],
    }


def dec_poly(payload: dict[str, Any]):
    from repro.poly.polyhedron import Polyhedron

    return Polyhedron(
        tuple(payload["v"]), [dec_constraint(c) for c in payload["c"]]
    )


def env_key(env) -> str:
    """Canonical key fragment for a parameter binding / bound mapping."""
    if env is None:
        return "-"
    if isinstance(env, int):
        return str(env)
    return ",".join(f"{k}={env[k]}" for k in sorted(env))
