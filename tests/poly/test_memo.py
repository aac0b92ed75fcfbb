"""The analysis-layer memo: in-process + disk caching, interning, stats."""

from __future__ import annotations

import json
import pickle

import pytest

from repro import telemetry
from repro.errors import CaseSplitError
from repro.poly import memo
from repro.poly.constraint import Constraint, Kind, eq0, ge, ge0, le
from repro.poly.linexpr import LinExpr
from repro.poly.polyhedron import Polyhedron
from repro.utils.caching import code_salt

i, j, N = LinExpr.var("i"), LinExpr.var("j"), LinExpr.var("N")


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    """Every test starts caching-enabled with empty analysis memos.

    Forcing the knob makes this module self-contained: it also passes
    under the CI job that exports ``REPRO_POLY_CACHE=off`` globally.
    Tests that exercise off-mode set the variable themselves.
    """
    monkeypatch.setenv("REPRO_POLY_CACHE", "on")
    memo.clear_memos()
    yield
    memo.clear_memos()


def _box(lo: int = 0, hi: int = 9) -> Polyhedron:
    return Polyhedron(("i",), [ge(i, lo), le(i, hi)])


class TestMemoize:
    def test_second_call_hits(self):
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert memo.memoize("t", ("k",), compute) == 42
        assert memo.memoize("t", ("k",), compute) == 42
        assert len(calls) == 1
        assert memo.stats()["ops"]["t"] == {"hit": 1, "miss": 1, "disk_hit": 0}

    def test_distinct_keys_distinct_entries(self):
        assert memo.memoize("t", ("a",), lambda: 1) == 1
        assert memo.memoize("t", ("b",), lambda: 2) == 2
        assert memo.stats()["memo_entries"] == 2

    def test_cacheable_error_reraised_on_hit(self):
        calls = []

        def compute():
            calls.append(1)
            raise CaseSplitError("needs a split")

        for _ in range(2):
            with pytest.raises(CaseSplitError, match="needs a split"):
                memo.memoize("t", ("k",), compute)
        assert len(calls) == 1

    def test_uncacheable_error_propagates_uncached(self):
        calls = []

        def compute():
            calls.append(1)
            raise ValueError("boom")

        for _ in range(2):
            with pytest.raises(ValueError):
                memo.memoize("t", ("k",), compute)
        assert len(calls) == 2

    def test_disabled_mode_computes_every_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_POLY_CACHE", "off")
        memo.clear_memos()
        calls = []
        for _ in range(2):
            memo.memoize("t", ("k",), lambda: calls.append(1))
        assert len(calls) == 2
        assert not memo.caching_enabled()

    def test_clear_memos_drops_entries_and_stats(self):
        memo.memoize("t", ("k",), lambda: 1)
        memo.clear_memos()
        s = memo.stats()
        assert s["memo_entries"] == 0 and s["ops"] == {}


class TestDiskLayer:
    @pytest.fixture(autouse=True)
    def _disk(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        memo.clear_memos()
        self.path = tmp_path / f"store-{code_salt()}.jsonl"

    def test_round_trip_after_clear(self):
        p = _box()
        calls = []

        def compute():
            calls.append(1)
            return p

        out1 = memo.memoize_json(
            "t", ("k",), compute, encode=memo.enc_poly, decode=memo.dec_poly
        )
        memo.clear_memos()  # drops the in-process layer only
        out2 = memo.memoize_json(
            "t", ("k",), compute, encode=memo.enc_poly, decode=memo.dec_poly
        )
        assert len(calls) == 1
        assert out1 == out2 and out2.constraints == out1.constraints
        assert memo.stats()["ops"]["t"]["disk_hit"] == 1

    def test_error_round_trips_through_disk(self):
        def compute():
            raise CaseSplitError("disk-cached failure")

        with pytest.raises(CaseSplitError):
            memo.memoize_json("t", ("k",), compute, encode=str, decode=str)
        memo.clear_memos()
        with pytest.raises(CaseSplitError, match="disk-cached failure"):
            memo.memoize_json(
                "t", ("k",), lambda: pytest.fail("must not recompute"),
                encode=str, decode=str,
            )

    def test_corrupt_lines_skipped(self):
        memo.memoize_json("t", ("a",), lambda: 1, encode=int, decode=int)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write('{"k": "torn-entr\n')
            fh.write('{"k": "t|b", "v": "not-an-int"}\n')
        memo.clear_memos()
        telemetry.enable()
        try:
            assert (
                memo.memoize_json("t", ("a",), lambda: 2, encode=int, decode=int)
                == 1
            )
            # The undecodable entry is a miss, recomputed, not trusted.
            assert (
                memo.memoize_json("t", ("b",), lambda: 3, encode=int, decode=int)
                == 3
            )
            assert telemetry.counter_value("cache.corrupt") == 2
        finally:
            telemetry.disable()
            telemetry.reset()

    def test_no_cache_env_disables_disk(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        memo.clear_memos()
        memo.memoize_json("t", ("k",), lambda: 1, encode=int, decode=int)
        assert not self.path.exists()


class TestCodecs:
    def test_linexpr_round_trip(self):
        e = i * 3 - j / 2 + 7
        assert memo.dec_linexpr(json.loads(json.dumps(memo.enc_linexpr(e)))) == e

    def test_constraint_round_trip(self):
        for c in (ge0(i - 1), eq0(i * 2 - N)):
            assert memo.dec_constraint(memo.enc_constraint(c)) == c

    def test_poly_round_trip_preserves_order(self):
        p = Polyhedron(("i", "j"), [ge(i, 0), le(i, N), ge(j, i)])
        q = memo.dec_poly(json.loads(json.dumps(memo.enc_poly(p))))
        assert q.variables == p.variables
        assert q.constraints == p.constraints

    def test_env_key_forms(self):
        assert memo.env_key(None) == "-"
        assert memo.env_key(4) == "4"
        assert memo.env_key({"N": 8, "M": 2}) == "M=2,N=8"


class TestInterning:
    def test_equal_constraints_pointer_equal(self):
        assert ge(i, 3) is ge(i, 3)

    def test_equal_polyhedra_pointer_equal(self):
        assert _box() is _box()

    def test_interning_off_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_POLY_CACHE", "off")
        memo.clear_memos()
        a, b = _box(), _box()
        assert a is not b and a == b

    def test_pickle_round_trip(self):
        p = _box()
        q = pickle.loads(pickle.dumps(p))
        assert q == p and q.constraints == p.constraints
        c = pickle.loads(pickle.dumps(ge(i, 3)))
        assert c == ge(i, 3) and isinstance(c, Constraint)
        assert c.kind is Kind.GE

    def test_fingerprint_is_order_sensitive_and_stable(self):
        a = Polyhedron(("i",), [ge(i, 0), le(i, N)])
        b = Polyhedron(("i",), [le(i, N), ge(i, 0)])
        assert a == b  # set semantics
        assert a.fingerprint() != b.fingerprint()  # structural identity
        assert a.fingerprint() == a.fingerprint()
        # Not derived from PYTHONHASHSEED-dependent hash(): a fixed value.
        assert len(a.fingerprint()) == 32
