"""Static analysis and runtime guards for the block (vectorized) exec tier.

The compiled executor (:mod:`repro.exec.compiled`) has two codegen tiers.
The scalar tier executes one Python statement per IR statement *per
iteration*; the block tier compiles an eligible innermost ``Loop`` into
whole-trip NumPy array operations — one gather/compute/scatter per body
statement and one ``(trip, events_per_iter)`` event matrix per loop entry
— which is how a trace producer gets within shouting distance of the
vectorized trace consumers.

Eligibility is decided in two stages, both conservative:

**Static** (:func:`classify_block_loop`, at compile time): the body is
straight-line ``Assign`` statements, optionally wrapped in one ``If``
without ``else`` whose condition is a *mask condition* — comparisons
joined by ``.AND.``/``.OR.``/``.NOT.`` over constants, loop variables,
parameters and scalars the body does not assign, with ``+ - *`` only (no
array, intrinsic or division). Each statement either writes an array
element or is a **sum fold** ``t = t + e`` / ``t = t - e``, where ``t``
is a real scalar or a loop-invariant array element, ``e`` does not read
``t``, and no other statement of the body touches ``t`` (for a scalar
``t``, ``e`` must also be float-valued, so the fold's type matches the
scalar tier's). Values use only elementwise-safe operations (``+ - *
/``, unary ``-``, ``sqrt``, ``abs``), and every subscript must be affine
with integral coefficients and free of array references, intrinsics and
division. Anything else — ``else`` branches, guards reading arrays,
nested statements, other scalar targets, ``Select``, non-affine
subscripts — compiles on the scalar tier, per loop.

A guarded body evaluates its condition as a mask over the iteration
vector and runs on the taken iterations only. A fold runs as one
``np.add.accumulate`` / ``np.subtract.accumulate`` seeded with the
incoming ``t``: a strictly sequential left fold, bit-identical to the
scalar tier's (``np.sum`` and ``reduce`` sum pairwise and are not).

**Runtime** (:func:`block_guard`, at every loop entry): block execution
runs each statement over the whole trip range (all gathers of a statement
before all its scatters, statements in order), which reorders accesses
across iterations. The guard proves, from the concrete affine form
``index(t) = a*t + b`` of every access (``t`` = 0-based iteration
number), that no reordered pair can ever touch the same element in a
different order than the scalar tier would — otherwise that loop *entry*
falls back to the scalar code, keeping traces and values bit-identical.
The proof covers the full trip range, so it holds for the taken subset of
a guarded body too.

The pair conditions (``W`` a write with slope ``a_w != 0``, ``R`` a read
or a later write; ``T`` the trip count):

- identical index expressions collide only at the same iteration, where
  statement order is preserved — statically safe, no runtime check;
- equal slopes collide at iteration distance ``q = (b_r - b_w) / a_w``;
  unsafe only if ``q`` is integral, ``|q| <= T - 1`` and its sign matches
  the one program order forbids;
- a loop-invariant read (``a_r == 0``) collides at the single iteration
  ``q = (b_r - b_w) / a_w``; unsafe only if ``q`` lands inside the trip
  range with an iteration on the forbidden side;
- any other slope combination is not analyzed: the guard reports unsafe
  and the entry runs on the scalar tier.

The fold rule: a fold's target element is read and written at every
iteration, so it is safe only if no *other* pattern of the same array can
reach that element within the trip, in either order. Any other write
with slope 0 is a recurrence and always falls back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import NotAffineError
from repro.ir.affine import expr_to_linexpr
from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Cmp,
    Const,
    Expr,
    LogicalAnd,
    LogicalNot,
    LogicalOr,
    UnOp,
    VarRef,
    walk_expr,
)
from repro.ir.stmt import Assign, If, Loop

#: Default minimum trip count before the block tier is worth entering
#: (NumPy per-call overhead beats the scalar tier only past a few
#: elements). Override per-compile or with ``REPRO_BLOCK_MIN_TRIP``.
DEFAULT_MIN_BLOCK_TRIP = 16

#: Intrinsics with bit-identical NumPy elementwise equivalents.
_VECTOR_CALLS = ("sqrt", "abs")

#: Static reasons :func:`classify_block_loop` rejects a loop, in the
#: order the checks run. These are the structured fallback-reason
#: counter suffixes telemetry records (``exec.fallback.static.<reason>``).
STATIC_FALLBACK_REASONS = (
    "non_const_step",      # step is not a positive integer constant
    "non_assign_body",     # nested loops / else / array-reading guard /
                           # scalar targets other than sum folds
    "non_vector_value",    # value uses Select/Cmp/non-elementwise calls
    "non_affine_subscript",  # a subscript is non-affine or non-integral
)


def resolve_min_block_trip(override: int | None = None) -> int:
    """The effective block-tier trip threshold (``>= 1``)."""
    if override is None:
        override = int(os.environ.get("REPRO_BLOCK_MIN_TRIP", DEFAULT_MIN_BLOCK_TRIP))
    return max(1, int(override))


@dataclass(frozen=True)
class BlockAccess:
    """One traced memory access of a block body, in event-emission order."""

    pattern: int  #: index into :attr:`BlockPlan.patterns`
    is_write: bool
    array: str


@dataclass(frozen=True)
class BlockPlan:
    """Everything codegen needs to emit the block tier for one loop.

    ``body`` holds the statements to vectorize (the ``then`` branch when
    ``mask`` is the condition of a guarded body); ``folds[k]`` is ``"+"``
    or ``"-"`` when ``body[k]`` is a sum fold. ``patterns`` holds the
    distinct ``(array, subscript-exprs)`` shapes; the generated code
    computes one index vector and one runtime ``(slope, intercept)`` pair
    per pattern. ``accesses`` lists every traced access in the exact order
    the scalar tier would emit its events. ``write_patterns`` / ``pairs``
    / ``fold_reach`` drive :func:`block_guard`.
    """

    loop: Loop
    body: tuple[Assign, ...]
    mask: Expr | None
    folds: tuple[str | None, ...]
    patterns: tuple[tuple[str, tuple[Expr, ...]], ...]
    accesses: tuple[BlockAccess, ...]
    write_patterns: tuple[int, ...]
    #: (write pattern, other pattern, need_pos): unsafe when a collision
    #: exists at positive (True) / negative (False) iteration distance.
    pairs: tuple[tuple[int, int, bool], ...]
    #: (fold target pattern, the other patterns of its array), for the
    #: fold targets whose array has other patterns.
    fold_reach: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def guarded_patterns(self) -> frozenset[int]:
        """The patterns :func:`block_guard` reads; an empty set means
        every entry is statically safe."""
        used = set(self.write_patterns)
        for w, o, _ in self.pairs:
            used.update((w, o))
        for f, others in self.fold_reach:
            used.add(f)
            used.update(others)
        return frozenset(used)


def _subscript_ok(sub: Expr, var: str) -> bool:
    """Affine, integral, and free of arrays/calls/division/comparison."""
    for node in walk_expr(sub):
        if isinstance(node, (ArrayRef, Call)):
            return False
        if isinstance(node, BinOp) and node.op == "/":
            return False
        if not isinstance(node, (Const, VarRef, BinOp, UnOp)):
            return False
    try:
        lin = expr_to_linexpr(sub)
    except NotAffineError:
        return False
    return lin.is_integral()


def _value_ok(expr: Expr) -> bool:
    """Only nodes with bit-identical elementwise NumPy equivalents."""
    if isinstance(expr, (Const, VarRef)):
        return True
    if isinstance(expr, ArrayRef):
        return True  # subscripts are checked separately
    if isinstance(expr, (BinOp, UnOp)):
        return all(_value_ok(c) for c in expr.children())
    if isinstance(expr, Call):
        return expr.func in _VECTOR_CALLS and all(_value_ok(a) for a in expr.args)
    return False  # Select / Cmp / logical nodes: scalar tier


def _mask_ok(cond: Expr, assigned: set[str]) -> bool:
    """A boolean condition whose elementwise NumPy evaluation equals the
    scalar tier's per iteration and cannot raise: comparisons and logic
    over ``+ - *`` of constants and names outside *assigned*."""
    if isinstance(cond, (LogicalAnd, LogicalOr)):
        return all(_mask_ok(a, assigned) for a in cond.args)
    if isinstance(cond, LogicalNot):
        return _mask_ok(cond.arg, assigned)
    if not isinstance(cond, Cmp):
        return False
    for side in (cond.lhs, cond.rhs):
        for node in walk_expr(side):
            if isinstance(node, VarRef):
                if node.name in assigned:
                    return False
            elif isinstance(node, BinOp):
                if node.op == "/":
                    return False
            elif not isinstance(node, (Const, UnOp)):
                return False
    return True


def _float_valued(expr: Expr) -> bool:
    """Statically a float: some node yields a float, and every operator
    above it propagates float-ness (all value operators do)."""
    for node in walk_expr(expr):
        if isinstance(node, ArrayRef):
            return True
        if isinstance(node, Const) and isinstance(node.value, float):
            return True
        if isinstance(node, BinOp) and node.op == "/":
            return True
        if isinstance(node, Call) and node.func == "sqrt":
            return True
    return False


def _fold_op(stmt: Assign) -> str | None:
    """``"+"`` / ``"-"`` when *stmt* is ``t = t + e`` / ``t = t - e`` with
    ``e`` not reading ``t``; ``None`` otherwise."""
    value = stmt.value
    if not (isinstance(value, BinOp) and value.op in ("+", "-")
            and value.lhs == stmt.target):
        return None
    if any(node == stmt.target for node in walk_expr(value.rhs)):
        return None
    return value.op


def _touches(stmt: Assign, node: Expr) -> bool:
    """Does *stmt* read or write the scalar or array element *node*?"""
    return any(n == node for n in walk_expr(stmt.target)) or any(
        n == node for n in walk_expr(stmt.value)
    )


def _invariant(ref: ArrayRef, var: str) -> bool:
    """Every subscript affine and free of *var*: one element per entry."""
    return all(
        _subscript_ok(sub, var) and expr_to_linexpr(sub).coeff(var) == 0
        for sub in ref.indices
    )


def _reads_in_order(expr: Expr) -> list[ArrayRef]:
    """Array reads in the scalar tier's event-emission (DFS) order."""
    out: list[ArrayRef] = []
    if isinstance(expr, ArrayRef):
        out.append(expr)  # subscripts hold no reads (checked)
        return out
    for child in expr.children():
        out.extend(_reads_in_order(child))
    return out


def classify_block_loop(
    loop: Loop, real_scalars: frozenset[str]
) -> tuple[BlockPlan | None, str | None]:
    """Classify *loop* for the block tier, naming any rejection.

    *real_scalars* are the program's non-integer scalars, the only scalar
    fold targets. Returns ``(plan, None)`` for an eligible loop, else
    ``(None, reason)`` with *reason* one of
    :data:`STATIC_FALLBACK_REASONS`.
    """
    if not (isinstance(loop.step, Const) and isinstance(loop.step.value, int)
            and loop.step.value >= 1):
        return None, "non_const_step"
    var = loop.var
    body, mask = loop.body, None
    if len(body) == 1 and isinstance(body[0], If) and not body[0].orelse:
        body, mask = body[0].then, body[0].cond
    if not body or not all(isinstance(stmt, Assign) for stmt in body):
        return None, "non_assign_body"
    folds: list[str | None] = []
    for pos, stmt in enumerate(body):
        op = _fold_op(stmt)
        target = stmt.target
        alone = op is not None and not any(
            _touches(other, target) for k, other in enumerate(body) if k != pos
        )
        if isinstance(target, VarRef):
            if not (alone and target.name in real_scalars
                    and _float_valued(stmt.value.rhs)):
                return None, "non_assign_body"
        elif not (alone and _invariant(target, var)):
            op = None  # an elementwise update such as A(i) = A(i) + B(i)
        if not _value_ok(stmt.value):
            return None, "non_vector_value"
        folds.append(op)
    assigned = {s.target.name for s in body if isinstance(s.target, VarRef)}
    if mask is not None and not _mask_ok(mask, assigned):
        return None, "non_assign_body"

    patterns: list[tuple[str, tuple[Expr, ...]]] = []
    pattern_ids: dict[tuple[str, tuple[Expr, ...]], int] = {}

    def pattern_id(ref: ArrayRef) -> int | None:
        for sub in ref.indices:
            if not _subscript_ok(sub, var):
                return None
        key = (ref.name, ref.indices)
        if key not in pattern_ids:
            pattern_ids[key] = len(patterns)
            patterns.append(key)
        return pattern_ids[key]

    # (pattern, is_write, stmt position) in event-emission order.
    accesses: list[BlockAccess] = []
    ordered: list[tuple[int, bool, int]] = []
    fold_pids: set[int] = set()
    for pos, stmt in enumerate(body):
        for ref in _reads_in_order(stmt.value):
            pid = pattern_id(ref)
            if pid is None:
                return None, "non_affine_subscript"
            ordered.append((pid, False, pos))
            accesses.append(BlockAccess(pid, False, ref.name))
        if isinstance(stmt.target, VarRef):
            continue  # a scalar fold: register-resident, no event
        pid = pattern_id(stmt.target)
        if pid is None:
            return None, "non_affine_subscript"
        ordered.append((pid, True, pos))
        accesses.append(BlockAccess(pid, True, stmt.target.name))
        if folds[pos] is not None:
            fold_pids.add(pid)

    write_patterns = tuple(sorted({pid for pid, w, _ in ordered if w} - fold_pids))
    pairs: list[tuple[int, int, bool]] = []
    seen: set[tuple[int, int, bool]] = set()
    for wpid, w_is_write, wpos in ordered:
        if not w_is_write or wpid in fold_pids:
            continue
        warr = patterns[wpid][0]
        for opid, o_is_write, opos in ordered:
            if patterns[opid][0] != warr or opid in fold_pids:
                continue  # fold targets: fold_reach covers every partner
            if opid == wpid:
                continue  # identical index shape: same-iteration only
            if o_is_write and opos <= wpos:
                continue  # W-W pairs once, earlier write as the probe
            # Scalar order within one iteration: all reads of a statement
            # precede its write. The write precedes the partner iff the
            # partner sits in a later statement (reads of the same
            # statement come first; a later write always does).
            precedes = wpos < opos
            key = (wpid, opid, precedes)
            if key not in seen:
                seen.add(key)
                pairs.append(key)
    fold_reach = []
    for f in sorted(fold_pids):
        others = tuple(p for p, (arr, _) in enumerate(patterns)
                       if arr == patterns[f][0] and p != f)
        if others:
            fold_reach.append((f, others))
    return BlockPlan(
        loop=loop,
        body=tuple(body),
        mask=mask,
        folds=tuple(folds),
        patterns=tuple(patterns),
        accesses=tuple(accesses),
        write_patterns=write_patterns,
        pairs=tuple(pairs),
        fold_reach=tuple(fold_reach),
    ), None


def _pair_unsafe(
    aw: int, bw: int, ar: int, br: int, trip: int, need_pos: bool
) -> bool:
    """Can write (aw, bw) and partner (ar, br) collide on the forbidden
    side of program order within ``trip`` iterations? Conservative: any
    slope combination this does not model reports unsafe."""
    d = br - bw
    if ar == aw:
        if d == 0 or d % aw:
            return False
        q = d // aw  # collision iteration distance i_w - i_partner
        if need_pos:
            return 0 < q <= trip - 1
        return -(trip - 1) <= q < 0
    if ar == 0:
        if d % aw:
            return False
        q = d // aw  # the one iteration whose write hits the location
        if q < 0 or q > trip - 1:
            return False
        return q >= 1 if need_pos else q <= trip - 2
    return True


def _reaches(a: int, b: int, element: int, trip: int) -> bool:
    """Does pattern ``a*t + b`` hit *element* for some ``0 <= t < trip``?"""
    d = element - b
    if a == 0:
        return d == 0
    return d % a == 0 and 0 <= d // a <= trip - 1


def block_guard(
    ab: tuple[tuple[int, int], ...],
    writes: tuple[int, ...],
    pairs: tuple[tuple[int, int, bool], ...],
    fold_reach: tuple[tuple[int, tuple[int, ...]], ...],
    trip: int,
) -> bool:
    """Runtime go/no-go for one block-loop entry.

    ``ab[p]`` is the concrete ``(slope, intercept)`` of pattern ``p``'s
    linear element index over 0-based iteration numbers (``None`` for
    patterns outside :attr:`BlockPlan.guarded_patterns`). True means the
    vectorized schedule is provably order-equivalent to the scalar tier
    for this entry; False routes the entry to the scalar fallback.
    """
    for w in writes:
        if ab[w][0] == 0:
            return False  # invariant write target: a recurrence shape
    for f, others in fold_reach:
        element = ab[f][1]  # slope 0: fold targets are loop-invariant
        for o in others:
            if _reaches(*ab[o], element, trip):
                return False
    for wpid, opid, need_pos in pairs:
        aw, bw = ab[wpid]
        ar, br = ab[opid]
        if _pair_unsafe(aw, bw, ar, br, trip, need_pos):
            return False
    return True
