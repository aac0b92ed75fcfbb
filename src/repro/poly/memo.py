"""Process-wide memoisation for the exact polyhedral engine.

Every expensive polyhedral operation (Fourier–Motzkin elimination and
projection, rational emptiness, integer feasibility, parametric lexmin)
is a pure function of immutable inputs, so its result can be keyed by the
inputs' structural fingerprints and reused:

- **in process** through one capped LRU memo (65536 entries), shared by
  all operations and cleared by :func:`clear_memos` (which
  `repro.experiments.clear_caches` calls, so sweep-pool workers start
  from a clean slate);
- **across processes** through the shared disk store
  (:data:`repro.utils.caching.disk_store`, in ``REPRO_CACHE_DIR``) for the
  operations whose results are cheap to serialise — feasibility verdicts,
  emptiness bits, lexmin solutions, projections, dependence-graph edges.
  The store's file name is salted with a digest of the ``repro`` source,
  so an answer persisted by older analysis code is never read back.

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
measurement cache).
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Any, Callable

from repro import telemetry
from repro.errors import CaseSplitError, PolyhedronError, UnboundedError
from repro.utils.caching import MISS, LRUCache, disk_store

#: Capacity of the process-wide analysis LRU (entries, shared by all ops).
_MEMO_SIZE = 65536

#: Deterministic analysis failures worth caching (re-raised on hit).
_CACHEABLE_ERRORS = (CaseSplitError, UnboundedError, PolyhedronError)
_ERROR_BY_NAME = {exc.__name__: exc for exc in _CACHEABLE_ERRORS}


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
    return _MEMO_SIZE


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


def memoize(
    op: str,
    key: tuple,
    compute: Callable[[], Any],
    codec: tuple[Callable[[Any], Any], Callable[[Any], Any]] | None = None,
) -> Any:
    """Memoisation of ``compute()`` under ``(op, *key)``, in process and,
    given an ``(encode, decode)`` JSON *codec*, in the disk store.

    Deterministic analysis errors (:data:`_CACHEABLE_ERRORS`) are cached
    (on disk structurally) and re-raised on later hits.
    """
    if not caching_enabled():
        return compute()
    full = (op, *key)
    value = _memo.get(full, MISS)
    if value is not MISS:
        _count(op, "hit")
    else:
        if codec is not None:
            disk_key = "|".join(str(part) for part in key)
            value = disk_store.get(op, disk_key, lambda v: _decode(v, codec[1]))
        if value is not MISS:
            _count(op, "disk_hit")
        else:
            _count(op, "miss")
            try:
                value = compute()
            except _CACHEABLE_ERRORS as exc:
                value = _Raise(exc)
            if codec is not None:
                disk_store.put(op, disk_key, _encode(value, codec[0]))
        _memo[full] = value
    if type(value) is _Raise:
        raise value.exc
    return value


def memoize_json(
    op: str,
    key: tuple,
    compute: Callable[[], Any],
    *,
    encode: Callable[[Any], Any],
    decode: Callable[[Any], Any],
) -> Any:
    """:func:`memoize` with the disk layer: ``encode``/``decode``
    round-trip the result through JSON."""
    return memoize(op, key, compute, (encode, decode))


def _encode(value: Any, encode: Callable[[Any], Any]) -> Any:
    if type(value) is _Raise:
        return {"!exc": type(value.exc).__name__, "m": str(value.exc)}
    return encode(value)


def _decode(payload: Any, decode: Callable[[Any], Any]) -> Any:
    if isinstance(payload, dict) and "!exc" in payload:
        exc_type = _ERROR_BY_NAME.get(payload["!exc"], PolyhedronError)
        return _Raise(exc_type(payload.get("m", "")))
    return decode(payload)


# -- lifecycle / stats -----------------------------------------------------


def clear_memos() -> None:
    """Drop every in-process analysis memo and intern table.

    The disk store's loaded view is dropped too (the file is untouched)
    and re-read lazily, so a cleared process (or a freshly forked sweep
    worker) observes exactly the persisted state plus its own work.
    """
    global _memo, _stats, _enabled
    _memo = LRUCache(maxsize=_memo_size())
    for cache in _registered:
        cache.clear()
    disk_store.forget()
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
