"""Which loops may run as whole-section numpy blocks (the fast path).

A scalar loop runs one closure (interpreter) or one emitted statement
(generated code) per array element, which bounds how large a problem
the simulator can afford.
This module recognizes innermost ``DO`` loops whose bodies are
straight-line affine array assignments; :mod:`repro.codegen.emit`
lowers each accepted loop to one slice assignment per statement per
block instead of one statement per element.  The interpreter always
runs the scalar loop: it is the oracle the blocks are checked against.

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

Accounting: the block charges ``loop_tick(n)`` and ``compute(n * ops)``
with the *exact* per-iteration operation counts of the scalar path.
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

from ..lang import ast as A
from ..runtime.intrinsics import PURE_INTRINSICS
from ..settings import Settings
from .interpreter import _count_ops

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

#: calls that are pure and cost-free in the scalar path, hence safe
#: inside once-per-block invariant subexpressions
_INVARIANT_OK_CALLS = set(PURE_INTRINSICS) | {"myproc", "owner"}


class LoopPlan:
    """The legality analysis of one DO loop (module docstring) as a pure
    AST -> data step: the single definition of "this loop may run as
    blocks", lowered to source text by ``repro.codegen.emit._VecPlan``.

    A subscript offset is ``("zero",)``, ``("pos", expr)`` or
    ``("neg", expr)`` for ``i``, ``i + expr`` / ``expr + i`` and
    ``i - expr`` (``expr`` loop invariant).  Construction raises
    :class:`_Reject`; use :func:`loop_plan`.
    """

    def __init__(self, do: A.Do) -> None:
        self.do = do
        self.v = do.var
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
        if not do.body:
            raise _Reject
        for s in do.body:
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
                self.checked_inv_reads.append((ref.name, ref.subs[w[0]]))

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
            if isinstance(sub, A.CallExpr) \
                    and sub.name not in _INVARIANT_OK_CALLS:
                raise _Reject
            if isinstance(sub, A.Triplet):
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


def loop_plan(do: A.Do) -> Optional[LoopPlan]:
    """The :class:`LoopPlan` of *do*, or ``None`` when the loop must run
    as the scalar loop."""
    try:
        return LoopPlan(do)
    except _Reject:
        return None


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
    perturb the simulation).  Generated modules call it through
    ``NodeRt.trace_vec``."""
    tracer.emit(ctx.rank, ("interp.vec", t0, ctx.clock_estimate() - t0,
                           unit, var, n, ops))
