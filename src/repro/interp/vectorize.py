"""Vectorized block execution of compiled loop nests (the fast path).

The closure interpreter dispatches one Python closure per array element,
which bounds how large a problem the simulator can afford.  This module
recognizes innermost ``DO`` loops whose bodies are straight-line affine
array assignments and compiles them to whole-section numpy expressions:
one slice assignment per statement per block instead of one closure call
per element.

Legality (:class:`LoopPlan` — one analysis, lowered to closures here
and to source text by :mod:`repro.codegen.emit` — with residual
conditions checked per block at run time; any failure falls back to the
scalar loop for that block):

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
between the scalar and vectorized paths.

``REPRO_VECTORIZE=0`` in the environment forces the scalar path
everywhere (every result stays cross-checkable); the ``vectorize``
keyword of the run helpers overrides the environment per run.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Optional

import numpy as np

from ..lang import ast as A
from ..runtime.intrinsics import PURE_INTRINSICS, f_func, g_func
from ..settings import Settings
from .interpreter import _count_ops

#: below this trip count the closure path is cheaper than slice setup
MIN_BLOCK = 4


def enabled(override: Optional[bool] = None) -> bool:
    """The effective vectorization switch: explicit *override* if given,
    else the ``REPRO_VECTORIZE`` environment flag (default on)."""
    if override is not None:
        return bool(override)
    return Settings.from_env().vectorize


class _Reject(Exception):
    """Internal: the loop is not vectorizable."""


class _Block:
    """One runtime instance of a vectorized loop: bounds, trip count,
    and the lazily built index vector."""

    __slots__ = ("lo", "st", "n", "_iota")

    def __init__(self, lo: int, st: int, n: int) -> None:
        self.lo = lo
        self.st = st
        self.n = n
        self._iota = None

    def iota(self) -> np.ndarray:
        if self._iota is None:
            self._iota = np.arange(
                self.lo, self.lo + self.n * self.st, self.st
            )
        return self._iota


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


#: ``name -> (block impl, min arity, exact arity or None)``: intrinsics
#: whose numpy application is bit-identical to the scalar interpreter's
#: per-element application (``exp`` is excluded: numpy's SIMD exp is not
#: guaranteed identical to libm's).  :class:`LoopPlan` checks the arity,
#: so no lowering meets a call it cannot lower.
VEC_INTRINSICS: dict[str, tuple[Callable, int, Optional[int]]] = {
    "f": (lambda args: f_func(args[0]), 1, 1),
    "g": (lambda args: g_func(args[0]), 1, 1),
    "abs": (lambda args: np.abs(args[0]), 1, 1),
    "sqrt": (lambda args: np.sqrt(args[0]), 1, 1),
    "min": (lambda args: reduce(np.minimum, args), 2, None),
    "max": (lambda args: reduce(np.maximum, args), 2, None),
}

#: calls that are pure and cost-free in the scalar path, hence safe
#: inside once-per-block invariant subexpressions
_INVARIANT_OK_CALLS = set(PURE_INTRINSICS) | {"myproc", "owner"}


class LoopPlan:
    """The legality analysis of one DO loop (module docstring) as a pure
    AST -> data step: the single definition of "this loop may run as
    blocks", lowered to closures by :class:`_Plan` and to source text by
    ``repro.codegen.emit._VecPlan``.

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
        reference.  Pure, so the lowerings call it again per read."""
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
            _impl, at_least, exactly = VEC_INTRINSICS[e.name]
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


class _Plan:
    """Closure lowering of a :class:`LoopPlan`: one block executor per
    statement plus the residual per-block checks."""

    def __init__(self, plan: LoopPlan, unit, interp) -> None:
        self.plan = plan
        self._scalar = lambda e: interp._compile_expr(e, unit)
        self.execs = [self._lower_stmt(*stmt) for stmt in plan.stmts]
        self._writes = [
            (name, [self._off_fn(off) for off in offs])
            for name, (_axis, offs) in plan.writes.items()
        ]
        self._v_reads = [
            (name, self._off_fn(off)) for name, off in plan.checked_v_reads
        ]
        self._inv_reads = [
            (name, self._scalar(idx)) for name, idx in plan.checked_inv_reads
        ]

    def _off_fn(self, off: tuple) -> Callable:
        """``fn(frame) -> int`` of an offset descriptor."""
        if off[0] == "zero":
            return lambda fr: 0
        fn = self._scalar(off[1])
        if off[0] == "pos":
            return lambda fr: int(fn(fr))
        return lambda fr: -int(fn(fr))

    def _section(self, ref: A.ArrayRef, axis: int, off: tuple) -> tuple:
        """The ``_block_slices`` arguments of one loop-carried reference."""
        return ref.name, axis, self._off_fn(off), [
            None if pos == axis else self._scalar(s)
            for pos, s in enumerate(ref.subs)
        ]

    def _lower_expr(self, e: A.Expr) -> Callable:
        """Lower *e* to ``fn(frame, block) -> scalar | ndarray`` with
        values bit-identical to the scalar path's per-element results."""
        if not _mentions(e, self.plan.v):
            # evaluated once per block via the scalar expression compiler
            fn = self._scalar(e)
            return lambda fr, blk: fn(fr)
        if isinstance(e, A.Var):  # the loop variable itself
            return lambda fr, blk: blk.iota()
        if isinstance(e, A.ArrayRef):
            name, axis, off_fn, sub_items = self._section(
                e, *self.plan.classify_ref(e)
            )

            def read(fr, blk):
                arr = fr.arrays[name]
                sl = _block_slices(arr, blk, axis, off_fn(fr), sub_items, fr)
                return arr.data[sl]

            return read
        if isinstance(e, A.BinOp):
            lf = self._lower_expr(e.left)
            rf = self._lower_expr(e.right)
            op = e.op
            if op == "+":
                return lambda fr, blk: lf(fr, blk) + rf(fr, blk)
            if op == "-":
                return lambda fr, blk: lf(fr, blk) - rf(fr, blk)
            if op == "*":
                return lambda fr, blk: lf(fr, blk) * rf(fr, blk)
            if op == "/":
                return lambda fr, blk: _fortran_div(lf(fr, blk), rf(fr, blk))
            return lambda fr, blk: lf(fr, blk) ** rf(fr, blk)
        if isinstance(e, A.UnOp):
            of = self._lower_expr(e.operand)
            return lambda fr, blk: -of(fr, blk)
        impl = VEC_INTRINSICS[e.name][0]
        arg_fns = [self._lower_expr(a) for a in e.args]
        return lambda fr, blk: impl([f(fr, blk) for f in arg_fns])

    def _lower_stmt(self, target: A.ArrayRef, axis: int, off: tuple,
                    rhs: A.Expr) -> Callable:
        name, axis, off_fn, sub_items = self._section(target, axis, off)
        rhs_fn = self._lower_expr(rhs)

        def exec_stmt(fr, blk):
            arr = fr.arrays[name]
            sl = _block_slices(arr, blk, axis, off_fn(fr), sub_items, fr)
            arr.data[sl] = rhs_fn(fr, blk)

        return exec_stmt

    def runtime_ok(self, fr, lo: int, st: int, n: int) -> bool:
        """Per-block residual legality: common write offsets, read
        offsets equal to write offsets, invariant reads outside the
        written index range."""
        woff = {}
        for name, off_fns in self._writes:
            w = off_fns[0](fr)
            for f in off_fns[1:]:
                if f(fr) != w:
                    return False
            woff[name] = w
        for name, off_fn in self._v_reads:
            if off_fn(fr) != woff[name]:
                return False
        for name, idx_fn in self._inv_reads:
            first = lo + woff[name]
            last = first + (n - 1) * st
            w_lo, w_hi = (first, last) if st > 0 else (last, first)
            if w_lo <= int(idx_fn(fr)) <= w_hi:
                return False
        return True


def ax_slice(arr, pos: int, first: int, last: int, st: int) -> slice:
    """Loop-axis block section ``first, first+st, .., last`` -> numpy
    slice, bounds-checked at the block endpoints like the scalar path
    checks each element.  Generated modules call it by this name."""
    o_first = arr._offset(pos, first)
    o_last = arr._offset(pos, last)
    stop = o_last + (1 if st > 0 else -1)
    return slice(o_first, stop if stop >= 0 else None, st)


def _block_slices(arr, blk: _Block, axis: int, off: int,
                  sub_items, fr) -> tuple:
    """Global-index block section -> numpy index tuple."""
    out = []
    for pos, item in enumerate(sub_items):
        if pos == axis:
            first = blk.lo + off
            out.append(ax_slice(arr, pos, first,
                                first + (blk.n - 1) * blk.st, blk.st))
        else:
            out.append(arr._offset(pos, int(item(fr))))
    return tuple(out)


def trace_block(tracer, ctx, t0: float, unit: str, var: str, n: int,
                ops: int) -> None:
    """The ``interp.vec`` event of one executed block: the virtual span
    of its charges, previewed without flushing (a flush here would
    perturb the simulation).  One definition, so tools cannot tell
    which engine executed the block."""
    tracer.emit(ctx.rank, ("interp.vec", t0, ctx.clock_estimate() - t0,
                           unit, var, n, ops))


def try_vectorize(do: A.Do, unit, interp, bounds,
                  scalar_loop) -> Optional[Callable]:
    """Attempt to compile *do* to a vectorized block executor.  Returns
    a statement function or ``None`` when the loop is not vectorizable;
    the returned function itself falls back to
    ``scalar_loop(frame, lo, hi, step)`` — over the bounds *bounds* has
    already evaluated, once — for blocks that fail the residual runtime
    checks or are too small to win."""
    analysis = loop_plan(do)
    if analysis is None:
        return None
    plan = _Plan(analysis, unit, interp)
    ctx = interp.ctx
    var = do.var
    ops_per_iter = analysis.ops_per_iter
    unit_name = unit.name

    def run_do_vec(fr):
        lo, hi, st = bounds(fr)
        n = (hi - lo) // st + 1
        if n <= 0:
            fr.scalars[var] = lo
            return
        if n < MIN_BLOCK or not plan.runtime_ok(fr, lo, st, n):
            scalar_loop(fr, lo, hi, st)
            return
        tracer = ctx.tracer
        t0 = ctx.clock_estimate() if tracer is not None else 0.0
        blk = _Block(lo, st, n)
        for exec_stmt in plan.execs:
            exec_stmt(fr, blk)
        ctx.loop_tick(n)
        ctx.compute(n * ops_per_iter)
        if tracer is not None:
            trace_block(tracer, ctx, t0, unit_name, var, n, n * ops_per_iter)
        fr.scalars[var] = lo + n * st

    return run_do_vec
