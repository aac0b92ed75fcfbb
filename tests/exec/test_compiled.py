"""Unit tests for the compiling executor."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.exec.compiled import CompiledProgram, run_compiled
from repro.ir.builder import (
    assign,
    ceq,
    cgt,
    cne,
    fabs,
    idx,
    if_,
    loop,
    sqrt,
    sym,
    val,
)
from repro.ir.expr import Select
from repro.ir.program import ArrayDecl, Program, ScalarDecl

N = sym("N")
i = sym("i")


def prog(body, arrays=(("A", 1),), scalars=(), params=("N",)):
    decls = tuple(
        ArrayDecl(name, (N,) * rank) for name, rank in arrays
    )
    sdecls = tuple(ScalarDecl(s) for s in scalars)
    return Program("t", params, decls, sdecls, tuple(body))


class TestBasics:
    def test_fill_loop(self):
        p = prog([loop("i", 1, N, [assign(idx("A", i), 2.0)])])
        out = run_compiled(p, {"N": 5})
        assert np.allclose(out.arrays["A"], 2.0)

    def test_one_based_indexing(self):
        p = prog([assign(idx("A", val(1)), 7.0), assign(idx("A", N), 9.0)])
        out = run_compiled(p, {"N": 4})
        assert out.arrays["A"][0] == 7.0 and out.arrays["A"][3] == 9.0

    def test_column_major_semantics(self):
        # A(i, j): first index fastest — B(2,1) differs from B(1,2).
        p = Program(
            "t2",
            ("N",),
            (ArrayDecl("B", (N, N)),),
            (),
            (assign(idx("B", val(2), val(1)), 5.0),),
        )
        out = run_compiled(p, {"N": 3})
        assert out.arrays["B"][1, 0] == 5.0 and out.arrays["B"][0, 1] == 0.0

    def test_inputs_seed_arrays(self, rng):
        a0 = rng.random(6)
        p = prog([loop("i", 1, N, [assign(idx("A", i), idx("A", i) * 2.0)])])
        out = run_compiled(p, {"N": 6}, {"A": a0})
        assert np.allclose(out.arrays["A"], a0 * 2)

    def test_input_shape_checked(self):
        p = prog([assign(idx("A", val(1)), 0.0)])
        with pytest.raises(ExecutionError):
            run_compiled(p, {"N": 4}, {"A": np.zeros(5)})

    def test_missing_param(self):
        p = prog([assign(idx("A", val(1)), 0.0)])
        with pytest.raises(ExecutionError):
            run_compiled(p, {})

    def test_scalars_returned(self):
        p = prog([assign("s", 3.5)], scalars=("s",))
        assert run_compiled(p, {"N": 1}).scalars["s"] == 3.5

    def test_intrinsics(self):
        p = prog([assign("s", sqrt(val(16.0)) + fabs(val(-2.0)))], scalars=("s",))
        assert run_compiled(p, {"N": 1}).scalars["s"] == 6.0

    def test_select_expression(self):
        body = loop(
            "i",
            1,
            N,
            [assign(idx("A", i), Select(cgt(i, 2), val(1.0), val(0.0)))],
        )
        out = run_compiled(prog([body]), {"N": 4})
        assert list(out.arrays["A"]) == [0.0, 0.0, 1.0, 1.0]

    def test_keyword_loop_var(self):
        body = loop("is", 1, N, [assign(idx("A", sym("is")), 1.0)])
        out = run_compiled(prog([body]), {"N": 3})
        assert np.allclose(out.arrays["A"], 1.0)

    def test_if_else(self):
        body = loop(
            "i", 1, N,
            [if_(ceq(i, 2), assign(idx("A", i), 1.0), assign(idx("A", i), 2.0))],
        )
        out = run_compiled(prog([body]), {"N": 3})
        assert list(out.arrays["A"]) == [2.0, 1.0, 2.0]

    def test_stepped_loop(self):
        body = loop("i", 1, N, [assign(idx("A", i), 1.0)], step=2)
        out = run_compiled(prog([body]), {"N": 5})
        assert list(out.arrays["A"]) == [1.0, 0.0, 1.0, 0.0, 1.0]


class TestCounters:
    def test_loads_stores(self):
        body = loop("i", 1, N, [assign(idx("A", i), idx("A", i) + 1.0)])
        out = run_compiled(prog([body]), {"N": 10})
        assert out.counters.loads == 10 and out.counters.stores == 10
        assert out.counters.loop_iters == 10

    def test_branches_counted(self):
        body = loop("i", 1, N, [if_(ceq(i, 1), assign("s", 1.0))])
        out = run_compiled(prog([body], scalars=("s",)), {"N": 7})
        assert out.counters.branches == 7

    def test_flops_exclude_subscript_arith(self):
        body = loop("i", 1, N - 1, [assign(idx("A", i + 1), idx("A", i) * 2.0)])
        out = run_compiled(prog([body]), {"N": 5})
        assert out.counters.flops == 4  # one multiply per iteration


class TestTrace:
    def test_trace_matches_counters(self):
        body = loop("i", 1, N, [assign(idx("A", i), idx("A", i) + 1.0)])
        cp = CompiledProgram(prog([body]), trace=True)
        out = cp.run({"N": 8})
        aid, lin, rw = out.trace.memory_events()
        assert len(aid) == out.counters.loads + out.counters.stores
        assert int((rw == 1).sum()) == out.counters.stores

    def test_trace_order_load_before_store(self):
        body = assign(idx("A", val(1)), idx("A", val(2)))
        cp = CompiledProgram(prog([body]), trace=True)
        out = cp.run({"N": 2})
        _aid, lin, rw = out.trace.memory_events()
        assert list(rw) == [0, 1]
        assert list(lin) == [1, 0]

    def test_branch_trace_sites(self):
        body = loop("i", 1, N, [if_(cne(i, 1), assign("s", 1.0))])
        cp = CompiledProgram(prog([body], scalars=("s",)), trace=True)
        out = cp.run({"N": 5})
        sid, taken = out.trace.branch_events()
        assert set(sid) == {0}
        assert list(taken) == [0, 1, 1, 1, 1]
        assert 0 in out.branch_sites

    def test_untraced_has_no_buffers(self):
        out = run_compiled(prog([assign(idx("A", val(1)), 0.0)]), {"N": 1})
        assert out.trace is None

    def test_empty_traced_run_has_empty_buffers(self):
        cp = CompiledProgram(prog([assign("s", 1.0)], scalars=("s",)), trace=True)
        trace = cp.run({"N": 1}).trace
        assert trace.memory.dtype == trace.branches.dtype == np.int64
        assert len(trace.memory) == len(trace.branches) == 0


class TestUntracedStreaming:
    """``run()`` is ``run_streaming()`` for every program, traced or not."""

    BODY = loop("i", 1, N, [if_(cne(i, 1), assign(idx("A", i), 2.0))])

    def test_run_and_run_streaming_agree(self):
        cp = CompiledProgram(prog([self.BODY]))
        run = cp.run({"N": 5})
        streamed = cp.run_streaming({"N": 5})
        assert run.trace is None and streamed.trace is None
        assert list(run.arrays["A"]) == [0.0, 2.0, 2.0, 2.0, 2.0]
        assert np.array_equal(streamed.arrays["A"], run.arrays["A"])
        assert streamed.counters.as_dict() == run.counters.as_dict()
        assert run.counters.branches == 5

    @pytest.mark.parametrize("stream", ["memory_sink", "branch_sink"])
    def test_sink_needs_a_traced_program(self, stream):
        class Sink:
            def feed(self, chunk):
                raise AssertionError("an untraced program produced events")

        cp = CompiledProgram(prog([self.BODY]))
        with pytest.raises(ExecutionError, match="traced program"):
            cp.run_streaming({"N": 5}, **{stream: Sink()})
