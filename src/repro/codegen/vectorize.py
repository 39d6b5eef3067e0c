"""Which loops may run as whole-section numpy blocks (the fast path).

A scalar loop runs one emitted statement per array element, which
bounds how large a problem the simulator can afford.  This module
decides which ``DO`` loops may instead run as numpy blocks, and
:mod:`repro.codegen.emit` lowers each accepted plan to one slice
assignment per statement per block.  The interpreter always runs the
scalar loop: it is the oracle the blocks are checked against.

There are two block shapes, both decided by :class:`LoopPlan`:

* **innermost-loop blocks** (:func:`loop_plan`): a loop whose body is
  straight-line affine array assignments runs each statement once over
  the block of its iterations;
* **outer-loop blocks** (:func:`nest_plan`): a perfect 2-deep nest whose
  inner loop cannot block (it carries a dependence, like ADI's
  ``a(i, j) = a(i, j) + 0.5 * a(i, j - 1)``) but whose outer loop
  carries none runs interchanged: the inner loop runs in order, and
  each inner iteration runs one numpy statement per body statement
  over the block of *outer* iterations.  The legality rules are the
  same ones, applied with the outer variable as the loop variable and
  the inner variable as a per-statement invariant.  An innermost block
  is preferred: the outer block is tried only where the inner loop has
  no plan.

Legality (:class:`LoopPlan`, with residual conditions checked per block
at run time; any failure falls back to the scalar loop for that block):

* the body is a non-empty sequence of ``Assign`` statements to array
  elements — no calls, no communication, no control flow, no scalar
  assignments;
* every subscript is ``c``, ``i``, ``i ± c`` or a loop-invariant
  expression, where ``i`` is the loop variable and ``c`` is loop
  invariant; the loop variable appears in exactly one subscript
  position of each reference that uses it;
* right-hand sides use only literals, loop-invariant scalars, the loop
  variable, array references as above, ``+ - * / **`` and unary minus,
  and elementwise-safe intrinsics (``f g abs sqrt min max``) — any
  loop-invariant subexpression without user-function calls is permitted
  wholesale (it is evaluated once per block);
* for every array *written* in the block, all writes share one loop
  axis and (checked at run time) one offset ``w``; every read of that
  array carrying the loop variable sits on the same axis with offset
  ``r == w``, and every loop-invariant read of it indexes outside the
  written range.  Under these rules each iteration touches a distinct
  element and statement order is preserved elementwise, so block
  execution is observationally identical to the sequential loop.

A nest adds three static conditions, so that its residual checks run
once per nest rather than once per inner iteration: the inner loop's
bounds and step are invariant in both loop variables and call no user
function (an array they read counts as an invariant read of the nest);
no loop-axis offset mentions the inner variable; and no checked
invariant-read index does.  Under the rules above each outer iteration
then owns a disjoint slab of every written array, so running the inner
loop outermost reorders nothing that any iteration can observe.

When a residual offset check is constant and false at emit time (a read
at ``i - 1`` of an array written at ``i``), the plan is refuted: no
block could ever run, and :func:`loop_plan` returns ``None`` rather than
a plan whose run-time check always fails.

Accounting: the block charges ``loop_tick(n)`` and ``compute(n * ops)``
with the *exact* per-iteration operation counts of the scalar path (a
nest: ``loop_tick(n_out)``, ``loop_tick(n_out * n_in)`` and
``compute(n_out * n_in * ops)``).
:class:`~repro.machine.machine.ProcContext` batches charges as integer
counters and converts them to virtual time only at observation points,
so clocks, per-processor work, and guard counts are bit-identical
between block and scalar execution.

``REPRO_VECTORIZE=0`` in the environment makes the generated engine
emit scalar loops everywhere; the ``vectorize`` keyword of the run
helpers overrides the environment per run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..runtime.node import _count_ops
from ..lang import ast as A
from ..settings import Settings

#: below this trip count the scalar loop is cheaper than slice setup
MIN_BLOCK = 4


def enabled(override: Optional[bool] = None) -> bool:
    """The effective vectorization switch: explicit *override* if given,
    else the ``REPRO_VECTORIZE`` environment flag (default on)."""
    if override is not None:
        return bool(override)
    return Settings.from_env().vectorize


class _Reject(Exception):
    """Internal: the loop is not vectorizable."""


def _mentions(e: A.Expr, v: str) -> bool:
    return any(
        isinstance(x, A.Var) and x.name == v for x in A.walk_exprs(e)
    )


def const_int(e: A.Expr) -> Optional[int]:
    """The value of an integer literal (or its negation), else None."""
    if isinstance(e, A.Num) and isinstance(e.value, int):
        return e.value
    if isinstance(e, A.UnOp) and e.op == "-" \
            and isinstance(e.operand, A.Num) \
            and isinstance(e.operand.value, int):
        return -e.operand.value
    return None


def const_offset(off: tuple) -> Optional[int]:
    """The value of a :class:`LoopPlan` offset known at emit time."""
    if off[0] == "zero":
        return 0
    c = const_int(off[1])
    if c is None:
        return None
    return c if off[0] == "pos" else -c


def _is_int(x) -> bool:
    if isinstance(x, np.ndarray):
        return x.dtype.kind in "iu"
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _fortran_div(a, b):
    """Elementwise form of the scalar ``/`` (``interpreter.fdiv``):
    Fortran truncating division when both operands are integral, IEEE
    division otherwise."""
    if _is_int(a) and _is_int(b):
        q = np.abs(a) // np.abs(b)
        return np.where((a >= 0) == (b >= 0), q, -q)
    return a / b


#: ``name -> (min arity, exact arity or None)``: intrinsics whose numpy
#: application is bit-identical to the scalar per-element application
#: (``exp`` is excluded: numpy's SIMD exp is not guaranteed identical to
#: libm's).  :class:`LoopPlan` checks the arity, so the emitter never
#: meets a call it cannot lower.
VEC_INTRINSICS: dict[str, tuple[int, Optional[int]]] = {
    "f": (1, 1),
    "g": (1, 1),
    "abs": (1, 1),
    "sqrt": (1, 1),
    "min": (2, None),
    "max": (2, None),
}


class LoopPlan:
    """The legality analysis of one DO loop (module docstring) as a pure
    AST -> data step: the single definition of "this loop may run as
    blocks", lowered to source text by ``repro.codegen.emit._VecPlan``.

    With *inner* (the one statement of ``do``'s body), the plan is the
    outer-loop block of the nest: the body analysed is *inner*'s, with
    ``do.var`` the loop variable and ``inner.var`` an invariant.

    A subscript offset is ``("zero",)``, ``("pos", expr)`` or
    ``("neg", expr)`` for ``i``, ``i + expr`` / ``expr + i`` and
    ``i - expr`` (``expr`` loop invariant).  Construction raises
    :class:`_Reject`; use :func:`loop_plan` or :func:`nest_plan`.
    """

    def __init__(self, do: A.Do, inner: Optional[A.Do] = None) -> None:
        self.do = do
        self.v = do.var
        self.inner = inner
        body = do.body if inner is None else inner.body
        #: written array -> (loop axis, [offset of each write])
        self.writes: dict[str, tuple[int, list]] = {}
        #: one ``(target, axis, off, rhs)`` per body statement
        self.stmts: list[tuple[A.ArrayRef, int, tuple, A.Expr]] = []
        #: the right-hand sides use the loop variable as a value
        self.uses_iota = False
        #: the scalar path's exact operation count of one iteration
        self.ops_per_iter = 0
        self._v_reads: list[tuple[str, int, tuple]] = []
        self._inv_reads: list[A.ArrayRef] = []
        if not body:
            raise _Reject
        for s in body:
            if not (isinstance(s, A.Assign)
                    and isinstance(s.target, A.ArrayRef)):
                raise _Reject
            # the write is registered before its right-hand side is
            # analysed (the order of the residual checks depends on it)
            axis, off = self._record_ref(s.target)
            if axis is None:
                raise _Reject  # loop-invariant write: a cross-iteration race
            prev = self.writes.setdefault(s.target.name, (axis, []))
            if prev[0] != axis:
                raise _Reject
            prev[1].append(off)
            self._check_expr(s.expr)
            self.ops_per_iter += _count_ops(s.expr) + 1 + len(s.target.subs)
            self.stmts.append((s.target, axis, off, s.expr))
        if inner is not None:
            self._check_nest(inner)
        #: ``(array, off)``: a read carrying the loop variable must sit
        #: on the write axis of an array the block writes, and (checked
        #: per block) at the write offset
        self.checked_v_reads: list[tuple[str, tuple]] = []
        for name, axis, off in self._v_reads:
            w = self.writes.get(name)
            if w is not None:
                if axis != w[0]:
                    raise _Reject
                self.checked_v_reads.append((name, off))
        #: ``(array, index expr on the write axis)``: an invariant read
        #: of a written array must (checked per block) miss the block
        self.checked_inv_reads: list[tuple[str, A.Expr]] = []
        for ref in self._inv_reads:
            w = self.writes.get(ref.name)
            if w is not None:
                if w[0] >= len(ref.subs):
                    raise _Reject
                idx = ref.subs[w[0]]
                if inner is not None and _mentions(idx, inner.var):
                    raise _Reject
                self.checked_inv_reads.append((ref.name, idx))

    def _check_nest(self, inner: A.Do) -> None:
        """The nest's static conditions (module docstring): invariant,
        call-free inner bounds and step, and no loop-axis offset that
        moves with the inner variable."""
        if inner.var == self.v:
            raise _Reject
        for e in (inner.lo, inner.hi, inner.step):
            if _mentions(e, self.v) or _mentions(e, inner.var):
                raise _Reject
            self._invariant(e)
        offs = [off for _, _, off, _ in self.stmts] \
            + [off for _, _, off in self._v_reads]
        for off in offs:
            if off[0] != "zero" and _mentions(off[1], inner.var):
                raise _Reject

    def offset_checks(self) -> list[tuple[str, tuple]]:
        """The residual offset checks, in order: each ``(array, off)``
        requires *off* to equal the first write offset of *array*."""
        out = [(name, off) for name, (_, offs) in self.writes.items()
               for off in offs[1:]]
        return out + self.checked_v_reads

    def decided(self, name: str, off: tuple) -> Optional[bool]:
        """The verdict of one offset check when both of its offsets are
        literals (known at emit time), else None."""
        c, w = const_offset(off), const_offset(self.writes[name][1][0])
        return None if c is None or w is None else c == w

    def refuted(self) -> bool:
        """Some residual offset check is decided false at emit time: no
        block of this plan can ever run."""
        return any(self.decided(name, off) is False
                   for name, off in self.offset_checks())

    def classify_ref(self, ref: A.ArrayRef):
        """``(axis, off)`` of the one subscript of *ref* that mentions
        the loop variable — ``(None, None)`` for a loop-invariant
        reference.  Pure, so the lowering calls it again per read."""
        axis = off = None
        for pos, sub in enumerate(ref.subs):
            if isinstance(sub, A.Triplet):
                raise _Reject
            if _mentions(sub, self.v):
                if axis is not None:
                    raise _Reject  # two subscripts use the loop variable
                axis, off = pos, self._axis_offset(sub)
        return axis, off

    def _axis_offset(self, e: A.Expr) -> tuple:
        """Offset descriptor of a subscript of the form ``i`` / ``i±c``
        / ``c+i`` (``c`` loop invariant)."""
        v = self.v
        if isinstance(e, A.Var) and e.name == v:
            return ("zero",)
        if isinstance(e, A.BinOp) and e.op in ("+", "-"):
            left_v = isinstance(e.left, A.Var) and e.left.name == v
            right_v = isinstance(e.right, A.Var) and e.right.name == v
            if left_v and not _mentions(e.right, v):
                return ("pos" if e.op == "+" else "neg", e.right)
            if e.op == "+" and right_v and not _mentions(e.left, v):
                return ("pos", e.left)
        raise _Reject

    def _record_ref(self, ref: A.ArrayRef):
        """:meth:`classify_ref` plus the invariance check of every other
        subscript (and of the offset), in subscript order."""
        axis, off = self.classify_ref(ref)
        for pos, sub in enumerate(ref.subs):
            if pos != axis:
                self._invariant(sub)
            elif off[0] != "zero":
                self._invariant(off[1])
        return axis, off

    def _invariant(self, e: A.Expr) -> None:
        """A loop-invariant expression the block evaluates once (the
        scalar path evaluates it per iteration, but invariance makes
        the values equal).  User-function calls are rejected — they
        carry per-call cost accounting and may have effects — and array
        reads inside it are recorded so the per-block disjointness
        check sees them."""
        for sub in A.walk_exprs(e):
            if isinstance(sub, (A.FuncRef, A.Triplet)):
                raise _Reject
            if isinstance(sub, A.ArrayRef):
                self._inv_reads.append(sub)

    def _check_expr(self, e: A.Expr) -> None:
        if not _mentions(e, self.v):
            self._invariant(e)
        elif isinstance(e, A.Var):  # the loop variable itself
            self.uses_iota = True
        elif isinstance(e, A.ArrayRef):
            # axis is not None: the reference mentions the loop variable
            axis, off = self._record_ref(e)
            self._v_reads.append((e.name, axis, off))
        elif isinstance(e, A.BinOp) and e.op in ("+", "-", "*", "/", "**"):
            self._check_expr(e.left)
            self._check_expr(e.right)
        elif isinstance(e, A.UnOp) and e.op == "-":
            self._check_expr(e.operand)
        elif isinstance(e, A.CallExpr) and e.name in VEC_INTRINSICS:
            at_least, exactly = VEC_INTRINSICS[e.name]
            if len(e.args) < at_least \
                    or (exactly is not None and len(e.args) != exactly):
                raise _Reject
            for a in e.args:
                self._check_expr(a)
        else:
            # comparisons / logicals are not in affine assigns; user
            # functions carry per-call cost and effects
            raise _Reject


def loop_plan(do: A.Do, inner: Optional[A.Do] = None) -> Optional[LoopPlan]:
    """The :class:`LoopPlan` of *do* (of the nest, with *inner*), or
    ``None`` when the loop must run as the scalar loop."""
    try:
        plan = LoopPlan(do, inner)
    except _Reject:
        return None
    return None if plan.refuted() else plan


def nest_plan(do: A.Do) -> Optional[LoopPlan]:
    """The outer-loop block plan of *do*, or ``None``: *do* must be a
    perfect 2-deep nest whose inner loop has no plan of its own."""
    if len(do.body) != 1 or not isinstance(do.body[0], A.Do):
        return None
    inner = do.body[0]
    if loop_plan(inner) is not None:
        return None
    return loop_plan(do, inner)


def ax_slice(arr, pos: int, first: int, last: int, st: int) -> slice:
    """Loop-axis block section ``first, first+st, .., last`` -> numpy
    slice, bounds-checked at the block endpoints like the scalar path
    checks each element.  Generated modules call it by this name."""
    o_first = arr._offset(pos, first)
    o_last = arr._offset(pos, last)
    stop = o_last + (1 if st > 0 else -1)
    return slice(o_first, stop if stop >= 0 else None, st)


def trace_block(tracer, ctx, t0: float, unit: str, var: str, n: int,
                ops: int) -> None:
    """The ``interp.vec`` event of one executed block: the virtual span
    of its charges, previewed without flushing (a flush here would
    perturb the simulation).  Generated modules call it by this
    name."""
    tracer.emit(ctx.rank, ("interp.vec", t0, ctx.clock_estimate() - t0,
                           unit, var, n, ops))
