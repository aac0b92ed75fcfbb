"""Property test: block-tier sum folds and guarded bodies are bit-identical
to the scalar oracle.

Random innermost loops fold into real scalars (``s = s + e``) and into
loop-invariant array elements (``X(j) = X(j) - e``), optionally beside an
elementwise statement, optionally under one affine guard built from all
six comparisons, ``.AND.``, ``.OR.``, ``.NOT.`` and loop-invariant terms.
With ``min_block_trip=1`` every entry the runtime guard admits runs on the
block tier; both tiers must produce the same traces, counters, arrays and
scalars bit for bit, fail together (zero divisors, negative square
roots), and stream the same events in full-size chunks.

The fixed cases below pin the shapes that must stay on the scalar tier
and the aliasing fold the runtime guard must send back to it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ExecutionError
from repro.exec.compiled import CompiledProgram
from repro.ir.builder import (
    and_,
    assign,
    ceq,
    cge,
    cgt,
    cle,
    clt,
    cne,
    fabs,
    idx,
    if_,
    loop,
    not_,
    or_,
    sqrt,
    sym,
    val,
)
from repro.ir.expr import BinOp, Expr
from repro.ir.program import ArrayDecl, Program, ScalarDecl

N, i, j, k = sym("N"), sym("i"), sym("j"), sym("k")
CMPS = (ceq, cne, clt, cle, cgt, cge)
ARRAYS = (ArrayDecl("A", (N,)), ArrayDecl("B", (N,)), ArrayDecl("X", (N,)))
SCALARS = (ScalarDecl("s"), ScalarDecl("t"), ScalarDecl("m", "i8"))


@st.composite
def terms(draw, depth: int = 2) -> Expr:
    """A float-valued fold operand over the inner loop ``i`` (never reads
    ``s``, ``t`` or the fold targets' own patterns)."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from([
            idx("A", i),
            idx("B", i),
            idx("B", N + 1 - i),
            idx("A", j),
            idx("X", i),  # may alias an X fold target: runtime guard
            i * 0.5,
            val(draw(st.sampled_from([1.5, -0.25, 3.0]))),
        ]))
    shape = draw(st.integers(0, 3))
    lhs = draw(terms(depth - 1))
    if shape == 0:
        # a negative operand must raise on both tiers
        return sqrt(lhs if draw(st.integers(0, 3)) == 0 else fabs(lhs))
    if shape == 1:
        # B may hold a zero: both tiers must raise together
        return BinOp("/", lhs, idx("B", i))
    rhs = draw(terms(depth - 1))
    return BinOp(draw(st.sampled_from(["+", "-", "*"])), lhs, rhs)


@st.composite
def conditions(draw, depth: int = 2) -> Expr:
    """An affine guard; some atoms are loop-invariant in ``i``."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        operands = [i, j, N, i + 1, 2 * i - j, N - i, val(draw(st.integers(0, 6)))]
        lhs = draw(st.sampled_from(operands))
        rhs = draw(st.sampled_from(operands))
        return draw(st.sampled_from(CMPS))(lhs, rhs)
    kind = draw(st.integers(0, 2))
    if kind == 2:
        return not_(draw(conditions(depth - 1)))
    parts = draw(st.lists(conditions(depth - 1), min_size=2, max_size=3))
    return and_(*parts) if kind == 0 else or_(*parts)


@st.composite
def fold_programs(draw) -> Program:
    """``do j = 1, 3`` around one innermost ``do i`` of folds."""
    body = []
    targets = draw(st.lists(
        st.sampled_from(["s", "t", "X(j)", "X(1)", "X(N)"]),
        min_size=1, max_size=3, unique=True,
    ))
    for name in targets:
        op = draw(st.sampled_from(["+", "-"]))
        target = sym(name) if len(name) == 1 else idx(
            "X", {"X(j)": j, "X(1)": val(1), "X(N)": N}[name]
        )
        body.append(assign(target, BinOp(op, target, draw(terms()))))
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), assign(idx("A", i), draw(terms())))
    if draw(st.booleans()):
        body = [if_(draw(conditions()), body)]
    lower = draw(st.sampled_from([val(1), j, j + 1]))
    inner = loop("i", lower, N, body)
    seed = [assign("s", idx("B", j))] if draw(st.booleans()) else []
    return Program(
        "folds", ("N",), ARRAYS, SCALARS,
        (loop("j", 1, 3, [*seed, inner]),),
    )


def _compile(program):
    scalar = CompiledProgram(program, trace=True, exec_mode="scalar")
    block = CompiledProgram(program, trace=True, exec_mode="block", min_block_trip=1)
    return scalar, block


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.int64)


def _assert_identical(rs, rb):
    assert np.array_equal(rs.trace.memory, rb.trace.memory)
    assert np.array_equal(rs.trace.branches, rb.trace.branches)
    assert rs.counters == rb.counters
    for name in rs.arrays:
        assert np.array_equal(_bits(rs.arrays[name]), _bits(rb.arrays[name])), name
    for name, v in rs.scalars.items():
        w = rb.scalars[name]
        assert type(v) is type(w), name
        assert _bits(np.array([v])) == _bits(np.array([w])), name


def _run_both(program, params, inputs):
    """Both tiers' results, or ``None`` when both raise ExecutionError."""
    scalar, block = _compile(program)
    try:
        rs = scalar.run(params, inputs)
    except ExecutionError:
        with pytest.raises(ExecutionError):
            block.run(params, inputs)
        return scalar, block, None, None
    return scalar, block, rs, block.run(params, inputs)


class _ChunkRecorder:
    def __init__(self) -> None:
        self.chunks: list[np.ndarray] = []

    def feed(self, chunk: np.ndarray) -> None:
        self.chunks.append(np.array(chunk, copy=True))


def _assert_full_chunks(chunks: list[np.ndarray], events: np.ndarray, size: int):
    assert len(chunks) == -(-len(events) // size)
    assert all(len(c) == size for c in chunks[:-1])
    joined = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
    assert np.array_equal(joined, events)


@given(
    fold_programs(),
    st.integers(1, 9),
    st.integers(0, 2**31 - 1),
    st.booleans(),
    st.sampled_from([1, 97, 65536]),
)
def test_folds_and_guards_bit_identical(program, n, seed, zero, chunk_events):
    rng = np.random.default_rng(seed)
    inputs = {a.name: rng.standard_normal(n) for a in ARRAYS}
    if zero:
        inputs["B"][rng.integers(n)] = 0.0
    params = {"N": n}
    scalar, block, rs, rb = _run_both(program, params, inputs)
    # Every generated innermost loop is statically block-eligible.
    assert [tier for _, tier, _ in block.loop_tiers] == ["block"]
    assert block.branch_sites == scalar.branch_sites
    if rs is None:
        return
    _assert_identical(rs, rb)
    memory, branches = _ChunkRecorder(), _ChunkRecorder()
    block.run_streaming(
        params, inputs, memory_sink=memory, branch_sink=branches,
        chunk_events=chunk_events,
    )
    _assert_full_chunks(memory.chunks, rb.trace.memory, chunk_events)
    _assert_full_chunks(branches.chunks, rb.trace.branches, chunk_events)


def _one_loop(body) -> Program:
    return Program(
        "p", ("N",), ARRAYS, SCALARS, (loop("j", 1, 3, [loop("i", 1, N, body)]),)
    )


STAY_SCALAR = {
    "fold operand reads t": [assign("s", sym("s") + sym("s") * idx("A", i))],
    "t = e + t": [assign("s", idx("A", i) + sym("s"))],
    "integer accumulator": [assign("m", sym("m") + 1)],
    "guard reads an array": [
        if_(cgt(idx("A", i), 0.0), [assign(idx("B", i), idx("A", i))])
    ],
    "guard with else": [
        if_(cge(i, j), [assign(idx("B", i), idx("A", i))],
            [assign(idx("B", i), 0.0)])
    ],
    "fold target touched twice": [
        assign("s", sym("s") + idx("A", i)),
        assign(idx("B", i), sym("s")),
    ],
    "guard reads a fold target": [
        if_(cgt(sym("s"), 1.0), [assign("s", sym("s") + idx("A", i))])
    ],
}


@pytest.mark.parametrize("case", sorted(STAY_SCALAR))
def test_shapes_that_stay_scalar(case):
    program = _one_loop(STAY_SCALAR[case])
    rng = np.random.default_rng(3)
    inputs = {a.name: rng.standard_normal(7) for a in ARRAYS}
    scalar, block, rs, rb = _run_both(program, {"N": 7}, inputs)
    assert block.block_loops == 0
    assert [(tier, reason) for _, tier, reason in block.loop_tiers] == [
        ("scalar", "non_assign_body")
    ]
    _assert_identical(rs, rb)


def test_aliasing_fold_falls_back_at_runtime():
    """``X(j) = X(j) + X(k)`` with ``k`` crossing ``j``: the fold target is
    one of the elements the operand reads, so every entry must run on the
    scalar tier — and a range that stays clear of ``j`` must not."""
    fold = [assign(idx("X", j), idx("X", j) + idx("X", k))]
    rng = np.random.default_rng(5)
    inputs = {"X": rng.standard_normal(8)}
    for lower, rejected in ((1, 3), (j + 1, 0)):
        program = Program(
            "alias", ("N",), ARRAYS, SCALARS,
            (loop("j", 1, 3, [loop("k", lower, N, fold)]),),
        )
        scalar, block, rs, rb = _run_both(program, {"N": 8}, inputs)
        assert block.block_loops == 1
        assert block.fallbacks.guard_rejected == rejected
        _assert_identical(rs, rb)


def test_float_error_state_of_kernel_and_sinks():
    """Block-tier math is silent whatever the caller's NumPy error state
    (``inf - inf`` is NaN, as on the scalar tier), while the sinks fed
    during the run keep the caller's state."""
    program = _one_loop([assign(idx("A", i), idx("B", i) - idx("X", i))])
    inputs = {"B": np.full(6, np.inf), "X": np.full(6, np.inf)}
    seen: list[str] = []

    class Sink:
        def feed(self, chunk: np.ndarray) -> None:
            seen.append(np.geterr()["invalid"])

    block = CompiledProgram(program, trace=True, min_block_trip=1)
    with np.errstate(all="raise"):
        result = block.run_streaming(
            {"N": 6}, inputs, memory_sink=Sink(), chunk_events=4
        )
    assert block.fallbacks.guard_rejected == 0
    assert np.isnan(result.arrays["A"]).all()
    assert seen and set(seen) == {"raise"}
