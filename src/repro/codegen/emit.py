"""Python source generation for compiled node programs.

The interpreter executes a compiled procedure by walking a tree of
closures; this module instead *prints* the procedure as straight-line
Python — scalar reads/writes against ``fr.scalars``, direct numpy
indexing against each array's buffer, inline virtual-clock charges, and
explicit ``send/recv/bcast/allreduce/remap`` calls at the placements the
compiler chose.  The **procedure** is the emitted unit
(:func:`emit_unit`): its text depends on nothing but its own key (see
:func:`repro.codegen.cache.unit_key`), so no emitter state outlives one
procedure.  It is printed once, for every rank ``0..P-1``: a
processor-identity guard like ``if (my$p .eq. 0)`` folds away only
when it holds the same for all of them (at ``P = 1``, every such guard)
and otherwise stays a run-time ``if``, as in the paper's one SPMD node
program.

Each procedure is one function: a generator ``fn(rt, fr)`` that
yields at exactly the interpreter's suspension points when it may
block (``find_blocking_units`` says so), a plain function otherwise.
``rt`` is the rank's :class:`~repro.runtime.node.Node`.

The generated code must be **bit-identical** to the interpreter in
arrays, virtual clocks, and RunStats.  The rules the two engines share
are not restated here but *lowered* from their one definition in
:mod:`repro.runtime.node`: the call convention (``rt.call``), ``/``,
scalar typing, print formatting and the memoized section cache
(``rt.comm_entry``).  Which loops and 2-deep
nests run as blocks, under which run-time checks
(:class:`~repro.codegen.vectorize.LoopPlan`), block sections and the
block trace event are defined once in :mod:`repro.codegen.vectorize`,
since only generated code runs blocks.  What this
module owns is the statement walk: every ``compute``/``loop_tick``/
``guard_tick`` charge is emitted in the interpreter's order, which the
differential suites check.

Emission is total over what the front end accepts: name resolution
(``lang/parser``) and the compiler (``core/driver.assemble``) reject
ill-formed programs, so a construct without a generated equivalent is
an internal error — :class:`CodegenError`, naming the procedure.
"""

from __future__ import annotations

import re
from typing import Optional

from ..lang import ast as A
from ..runtime.intrinsics import PURE_INTRINSICS
from ..runtime.node import (
    UnitFacts,
    _collective_origin,
    _comm_origin,
    _count_ops,
    scalar_type,
)
from .vectorize import (
    MIN_BLOCK,
    LoopPlan,
    _mentions,
    const_int,
    const_offset,
    loop_plan,
    nest_plan,
)


class CodegenError(Exception):
    """A procedure the generator could not lower, or whose text does not
    compile: an internal error, never a property of the program."""


#: Fortran binary operators with a direct Python spelling.
_BIN_PY = {
    "+": "+", "-": "-", "*": "*", "**": "**",
    "==": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}

#: comparison flip for normalizing ``const OP rank`` to ``rank OP const``
_CMP_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
             "==": "==", "/=": "/="}

#: numpy source spelling of each ``VEC_INTRINSICS`` entry: the call
#: itself for the unary ones, one step of the left fold for ``min``/``max``
_VEC_CALL_SRC = {
    "f": "f_func({0})",
    "g": "g_func({0})",
    "abs": "np_abs({0})",
    "sqrt": "np_sqrt({0})",
    "min": "np_minimum({0}, {1})",
    "max": "np_maximum({0}, {1})",
}


#: What every unit text assumes is in scope.  The loader executes it
#: once and runs each text over a copy of the resulting namespace; an
#: assembled module (:func:`assemble_module`) starts with it.  Only
#: plain names: CPython compiles ``mod.f(x)`` differently when it can
#: see ``mod`` being imported, and a text must compile to the same code
#: alone and inside an assembled module.
PRELUDE = """\
from numpy import abs as np_abs, arange as np_arange
from numpy import maximum as np_maximum, minimum as np_minimum
from numpy import sqrt as np_sqrt

from repro.codegen.vectorize import _fortran_div as _vdiv, ax_slice, trace_block
from repro.lang.ast import DistSpec
from repro.runtime.intrinsics import PURE_INTRINSICS, f_func, g_func
from repro.runtime.node import InterpError, _Stop, fdiv

""" + "".join(f"_in_{name} = PURE_INTRINSICS[{name!r}]\n"
              for name in PURE_INTRINSICS)


def unit_ident(name: str, y: bool) -> str:
    """Python name of the function generated for procedure *name*.
    Injective, so two procedures never share one (``h$1``, a clone, and
    a user's ``h_1``): source names are lowercase, every other
    character is spelled ``X<hex>X``, and only a generator ends in
    ``_Y``."""
    esc = re.sub(r"[^a-z0-9_]", lambda m: f"X{ord(m.group()):x}X", name)
    return "_u_" + esc + ("_Y" if y else "")


def emit_unit(
    unit: A.Procedure,
    facts: UnitFacts,
    callees: tuple[tuple[str, str, bool], ...],
    blocks: bool,
    vectorize: bool,
    nprocs: int,
) -> str:
    """Generate procedure *unit* for ranks ``0..nprocs-1``: its text, or
    :class:`CodegenError` naming the procedure.

    The result depends on the arguments alone — they are what
    :func:`repro.codegen.cache.unit_key` hashes: *facts* is derived
    from *unit*, *callees* is the sorted ``(name, kind, may block)`` row
    of every procedure it calls or references, *blocks* says whether it
    may suspend itself."""
    fn = _FnEmitter(unit, facts, callees, blocks, vectorize, 0, nprocs - 1)
    try:
        return fn.emit()
    except Exception as ex:
        raise CodegenError(
            f"{unit.name}: internal: {type(ex).__name__}: {ex}") from ex


def assemble_module(nprocs: int, vectorize: bool, blocking: frozenset,
                    texts: dict[str, str]) -> str:
    """The node program as a single importable module: the unit *texts*
    (procedure name -> text) over the prelude, with the ``UNITS``
    table.  For reading and dumping only — the run path executes the
    texts themselves."""
    out = ['"""Auto-generated node program — do not edit.', "",
           f"every rank 0..{nprocs - 1} of {nprocs}; "
           f"vectorize={vectorize}", '"""', "", PRELUDE,
           f"NPROCS = {nprocs}",
           f"BLOCKING = frozenset({sorted(blocking)!r})", ""]
    for text in texts.values():
        out += [text, ""]
    if not texts:
        return "\n".join(out + ["UNITS = {}"]) + "\n"
    out.append("UNITS = {")
    out += [f"    {name!r}: {unit_ident(name, name in blocking)},"
            for name in texts]
    out.append("}")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# one function (one procedure)
# --------------------------------------------------------------------------


class _FnEmitter:
    """Emit one procedure as ``def fn(rt, fr)`` — a generator when
    *y* (the procedure may block).

    Charge placement follows ``Interpreter._compile_stmt`` statement by
    statement, and a generator yields exactly where the interpreter's
    generator closures do.
    """

    def __init__(self, unit: A.Procedure, facts: UnitFacts,
                 callees: tuple[tuple[str, str, bool], ...], y: bool,
                 vectorize: bool, rlo: int, rhi: int) -> None:
        self.unit = unit
        self.facts = facts
        #: name -> (kind, may block) of every procedure referenced
        self.callees = {name: (kind, blocks)
                        for name, kind, blocks in callees}
        self.y = y
        self.vectorize = vectorize
        #: the ranks the text runs on: a guard folds only when it holds
        #: the same for all of them
        self.rlo = rlo
        self.rhi = rhi
        self.ident = unit_ident(unit.name, y)
        self.lines: list[str] = []
        self.ind = 1
        self._ntmp = 0
        self._nsid = 0
        self.uses: set[str] = set()
        self.specs: dict[tuple, str] = {}    # DistSpec rows -> constant
        self.arrays: dict[str, str] = {}     # array name -> ident
        self.arr_data: set[str] = set()      # idents needing .data alias
        self.arr_lo: set[tuple[str, int]] = set()  # (ident, axis) lbounds
        self.has_yield = False
        self.arr_ranks = {
            d.name: len(d.dims) for d in unit.decls if d.is_array
        }
        self.myvars = self._entry_rank_vars()

    # -- plumbing ----------------------------------------------------------

    def w(self, line: str) -> None:
        self.lines.append("    " * self.ind + line)

    def tmp(self) -> str:
        self._ntmp += 1
        return f"_t{self._ntmp}"

    def areg(self, name: str) -> str:
        """Register an array use; returns its sanitized ident."""
        if name not in self.arr_ranks:
            raise CodegenError(f"unknown array {name!r}")
        ident = self.arrays.get(name)
        if ident is None:
            base = re.sub(r"\W", "_", name)
            ident, k = base, 2
            while ident in self.arrays.values():
                ident = f"{base}{k}"
                k += 1
            self.arrays[name] = ident
        return ident

    def _entry_rank_vars(self) -> set[str]:
        """Scalars that provably hold ``ctx.rank`` throughout the body:
        bound by a SetMyProc in the entry prefix and never written by
        anything else.  These (plus ``myproc()`` itself) let
        processor-identity guards fold where every rank agrees."""
        prefix: set[str] = set()
        for s in self.unit.body:
            if isinstance(s, A.SetMyProc):
                prefix.add(s.var)
            elif isinstance(s, (A.Decomposition, A.Align, A.Distribute,
                                A.Continue)):
                continue
            else:
                break
        if not prefix:
            return prefix
        written = set(self.unit.formals) | self.facts.written
        for var_args in self.facts.func_refs.values():
            written |= var_args
        return prefix - written

    def specs_const(self, specs) -> str:
        for sp in specs:
            if sp.param is not None and not isinstance(sp.param, int):
                raise CodegenError(f"distribution parameter {sp.param!r}")
        key = tuple((sp.kind, sp.param) for sp in specs)
        ident = self.specs.get(key)
        if ident is None:
            stem = self.ident.replace("_u_", "_SPECS_", 1)
            ident = self.specs[key] = f"{stem}_{len(self.specs)}"
        return ident

    # -- assembly ----------------------------------------------------------

    def emit(self) -> str:
        """The unit's self-contained text: the constants it names, then
        its ``def``."""
        self.suite_inline(self.unit.body)
        if self.y and not self.has_yield:
            self.w("if False:")
            self.w("    yield  # pragma: no cover - generator marker")
        body = self._preamble() + self.lines
        if not body:
            body = ["    pass"]
        variant = "event" if self.y else "node"
        head = []
        for key, ident in self.specs.items():
            items = ", ".join(
                f"DistSpec(kind={kind!r}, param={param!r})"
                for kind, param in key
            )
            comma = "," if len(key) == 1 else ""
            head.append(f"{ident} = ({items}{comma})")
        head += [
            f"def {self.ident}(rt, fr):",
            f"    # {self.unit.kind} {self.unit.name} ({variant} variant)",
        ]
        return "\n".join(head + body)

    def _preamble(self) -> list[str]:
        u = self.uses
        pre: list[str] = []
        if u & {"ctx", "compute", "loop_tick", "guard_tick", "RANK"}:
            pre.append("ctx = rt.ctx")
        if "S" in u:
            pre.append("S = fr.scalars")
        if "A" in u or self.arrays:
            pre.append("A = fr.arrays")
        if "compute" in u:
            pre.append("compute = ctx.compute")
        if "loop_tick" in u:
            pre.append("loop_tick = ctx.loop_tick")
        if "guard_tick" in u:
            pre.append("guard_tick = ctx.guard_tick")
        if "RANK" in u:
            pre.append("RANK = ctx.rank")
        if "_trc" in u:
            pre.append("_trc = rt.tracer is not None")
        for name, ident in self.arrays.items():
            pre.append(f"_a_{ident} = A[{name!r}]")
            if ident in self.arr_data:
                pre.append(f"_d_{ident} = _a_{ident}.data")
        for ident, ax in sorted(self.arr_lo):
            pre.append(f"_l{ax}_{ident} = _a_{ident}.bounds[{ax}][0]")
        return ["    " + ln for ln in pre]

    # -- expressions -------------------------------------------------------

    def ex(self, e: A.Expr) -> str:
        if isinstance(e, (A.Num, A.Logical, A.Str)):
            return repr(e.value)
        if isinstance(e, A.Var):
            if e.name in self.myvars:  # proven to hold the rank
                self.uses.add("RANK")
                return "RANK"
            self.uses.add("S")
            return f"S[{e.name!r}]"
        if isinstance(e, A.ArrayRef):
            return self.elem(e)
        if isinstance(e, A.BinOp):
            left, right = self.ex(e.left), self.ex(e.right)
            if e.op == ".and.":
                return f"(bool({left}) and bool({right}))"
            if e.op == ".or.":
                return f"(bool({left}) or bool({right}))"
            if e.op == "/":
                return f"fdiv({left}, {right})"
            op = _BIN_PY.get(e.op)
            if op is None:
                raise CodegenError(f"operator {e.op!r}")
            return f"({left} {op} {right})"
        if isinstance(e, A.UnOp):
            x = self.ex(e.operand)
            if e.op == "-":
                return f"(-{x})"
            if e.op == ".not.":
                return f"(not {x})"
            raise CodegenError(f"unary operator {e.op!r}")
        if isinstance(e, A.CallExpr):
            return self.call_expr(e)
        if isinstance(e, A.FuncRef):
            args_src, actuals_src = self.call_args(list(e.args))
            return f"rt.fcall({e.name!r}, fr, {args_src}, {actuals_src})"
        raise CodegenError(f"expression {type(e).__name__}")

    def elem(self, ref: A.ArrayRef) -> str:
        ident = self.areg(ref.name)
        self.arr_data.add(ident)
        idx = []
        for ax, s in enumerate(ref.subs):
            self.arr_lo.add((ident, ax))
            idx.append(f"int({self.ex(s)}) - _l{ax}_{ident}")
        return f"_d_{ident}[{', '.join(idx)}]"

    def call_expr(self, e: A.CallExpr) -> str:
        """An intrinsic (name resolution made every user function
        reference an ``A.FuncRef``)."""
        name = e.name
        if name == "myproc":
            self.uses.add("RANK")
            return "RANK"
        if name == "owner":
            ref = e.args[0]
            ident = self.areg(ref.name)
            parts = [f"int({self.ex(s)})" for s in ref.subs]
            if len(parts) <= 2:
                idx = "(" + ", ".join(parts) + ("," if len(parts) == 1
                                                else "") + ")"
            else:
                idx = "[" + ", ".join(parts) + "]"
            arr = f"_a_{ident}"
            return (f"(0 if {arr}.dist is None or {arr}.dist.is_replicated "
                    f"else {arr}.dist.owner({idx}))")
        args = ", ".join(self.ex(a) for a in e.args)
        return f"_in_{name}({args})"

    def call_args(self, args: list[A.Expr]) -> tuple[str, str]:
        items, actuals = [], []
        for a in args:
            if isinstance(a, A.Var):
                self.uses.update(("A", "S"))
                items.append(
                    f"(A[{a.name!r}] if {a.name!r} in A else {self.ex(a)})"
                )
                actuals.append(repr(a.name))
            else:
                items.append(self.ex(a))
                actuals.append("None")
        args_src = "[" + ", ".join(items) + "]"
        comma = "," if len(actuals) == 1 else ""
        actuals_src = "(" + ", ".join(actuals) + comma + ")"
        return args_src, actuals_src

    @staticmethod
    def _has_user_call(exprs: list[A.Expr]) -> bool:
        return any(isinstance(sub, A.FuncRef)
                   for e in exprs for sub in A.walk_exprs(e))

    # -- statements --------------------------------------------------------

    def suite_inline(self, body: list[A.Stmt]) -> None:
        for s in body:
            self.emit_stmt(s)

    def suite(self, body: list[A.Stmt]) -> None:
        """Emit an indented suite, guaranteeing at least ``pass``."""
        self.ind += 1
        n0 = len(self.lines)
        self.suite_inline(body)
        if len(self.lines) == n0:
            self.w("pass")
        self.ind -= 1

    def emit_stmt(self, s: A.Stmt) -> None:
        if isinstance(s, A.Assign):
            return self.emit_assign(s)
        if isinstance(s, A.If):
            return self.emit_if(s)
        if isinstance(s, A.Do):
            return self.emit_do(s)
        if isinstance(s, A.DoWhile):
            return self.emit_dowhile(s)
        if isinstance(s, A.Call):
            return self.emit_call(s)
        if isinstance(s, A.Return):
            self.w("return")
            return
        if isinstance(s, A.Stop):
            self.w("raise _Stop()")
            return
        if isinstance(s, (A.Continue, A.Decomposition, A.Align,
                          A.Distribute)):
            return
        if isinstance(s, A.Print):
            return self.emit_print(s)
        if isinstance(s, A.SetMyProc):
            self.uses.update(("S", "RANK"))
            self.w(f"S[{s.var!r}] = RANK")
            return
        if isinstance(s, A.Send):
            return self.emit_send(s)
        if isinstance(s, A.Recv):
            return self.emit_recv(s)
        if isinstance(s, A.Bcast):
            return self.emit_bcast(s)
        if isinstance(s, A.SendPack):
            return self.emit_sendpack(s)
        if isinstance(s, A.RecvPack):
            return self.emit_recvpack(s)
        if isinstance(s, A.GlobalReduce):
            return self.emit_reduce(s)
        if isinstance(s, A.Remap):
            return self.emit_remap(s)
        if isinstance(s, A.MarkDist):
            return self.emit_mark(s)
        raise CodegenError(f"statement {type(s).__name__}")

    def emit_assign(self, s: A.Assign) -> None:
        self.uses.add("compute")
        ops = _count_ops(s.expr) + 1
        if isinstance(s.target, A.Var):
            name = s.target.name
            cast = "int" if scalar_type(self.unit, name) == "integer" \
                else "float"
            self.uses.add("S")
            self.w(f"S[{name!r}] = {cast}({self.ex(s.expr)})")
            self.w(f"compute({ops})")
            return
        ref = s.target
        ops += len(ref.subs)
        ident = self.areg(ref.name)
        self.arr_data.add(ident)
        if self._has_user_call(list(ref.subs) + [s.expr]):
            # user calls charge the clock: keep the interpreter's
            # indices-before-RHS evaluation order with explicit temps
            idx = []
            for ax, x in enumerate(ref.subs):
                self.arr_lo.add((ident, ax))
                t = self.tmp()
                self.w(f"{t} = int({self.ex(x)}) - _l{ax}_{ident}")
                idx.append(t)
            self.w(f"_d_{ident}[{', '.join(idx)}] = {self.ex(s.expr)}")
        else:
            idx = []
            for ax, x in enumerate(ref.subs):
                self.arr_lo.add((ident, ax))
                idx.append(f"int({self.ex(x)}) - _l{ax}_{ident}")
            self.w(f"_d_{ident}[{', '.join(idx)}] = {self.ex(s.expr)}")
        self.w(f"compute({ops})")

    # -- IF (rank guards fold where every rank agrees) ---------------------

    def emit_if(self, s: A.If) -> None:
        cond_ops = _count_ops(s.cond) or 1
        self.uses.add("guard_tick")
        self.w(f"guard_tick({cond_ops})")
        verdict = self.fold_cond(s.cond)
        if verdict is True:
            return self.suite_inline(s.then_body)
        if verdict is False:
            return self.suite_inline(s.else_body)
        self.w(f"if {self.ex(s.cond)}:")
        self.suite(s.then_body)
        if s.else_body:
            self.w("else:")
            self.suite(s.else_body)

    def fold_cond(self, e: A.Expr) -> Optional[bool]:
        """Three-valued evaluation of a guard over the rank interval
        ``[rlo, rhi]``.  Only pure, charge-free shapes fold (literals,
        rank-identity comparisons, and their boolean combinations), so
        skipping the condition's evaluation is unobservable."""
        if isinstance(e, A.Logical):
            return e.value
        if isinstance(e, A.UnOp) and e.op == ".not.":
            v = self.fold_cond(e.operand)
            return None if v is None else (not v)
        if not isinstance(e, A.BinOp):
            return None
        if e.op in (".and.", ".or."):
            left = self.fold_cond(e.left)
            right = self.fold_cond(e.right)
            if left is None or right is None:
                return None
            return (left and right) if e.op == ".and." else (left or right)
        op = e.op
        if op not in _CMP_FLIP:
            return None
        if self._is_rank_expr(e.left):
            c = const_int(e.right)
        elif self._is_rank_expr(e.right):
            c = const_int(e.left)
            op = _CMP_FLIP[op]
        else:
            return None
        if c is None:
            return None
        lo, hi = self.rlo, self.rhi
        if op == "<":
            return True if hi < c else (False if lo >= c else None)
        if op == "<=":
            return True if hi <= c else (False if lo > c else None)
        if op == ">":
            return True if lo > c else (False if hi <= c else None)
        if op == ">=":
            return True if lo >= c else (False if hi < c else None)
        if op == "==":
            if lo == hi == c:
                return True
            return False if (c < lo or c > hi) else None
        # "/="
        if lo == hi == c:
            return False
        return True if (c < lo or c > hi) else None

    def _is_rank_expr(self, e: A.Expr) -> bool:
        if isinstance(e, A.Var) and e.name in self.myvars:
            return True
        return isinstance(e, A.CallExpr) and e.name == "myproc" \
            and not e.args

    # -- loops -------------------------------------------------------------

    def emit_do(self, s: A.Do) -> None:
        self.uses.update(("S", "loop_tick"))
        bounds = self.loop_bounds(s)
        plan = (loop_plan(s) or nest_plan(s)) if self.vectorize else None
        if plan is not None:
            _VecPlan(self, plan).emit(*bounds)
        else:
            self.emit_do_scalar(s, *bounds)

    def loop_bounds(self, s: A.Do) -> tuple[str, str, str, Optional[int]]:
        """Evaluate the bounds of *s* once: ``(lo, hi, step)`` sources
        and the step's literal value (None unless a nonzero literal)."""
        lo_t, hi_t = self.tmp(), self.tmp()
        self.w(f"{lo_t} = int({self.ex(s.lo)})")
        self.w(f"{hi_t} = int({self.ex(s.hi)})")
        st_lit = const_int(s.step)
        if st_lit is not None and st_lit != 0:
            return lo_t, hi_t, repr(st_lit), st_lit
        st_src = self.tmp()
        self.w(f"{st_src} = int({self.ex(s.step)})")
        self.w(f"if {st_src} == 0:")
        msg = f"{self.unit.name}: zero DO step"
        self.w(f"    raise InterpError({msg!r})")
        return lo_t, hi_t, st_src, None

    def emit_do_scalar(self, s: A.Do, lo_t: str, hi_t: str,
                       st_src: str, st_lit: Optional[int]) -> None:
        i_t = self.tmp()
        self.w(f"{i_t} = {lo_t}")
        if st_lit is not None:
            cond = f"{i_t} <= {hi_t}" if st_lit > 0 else f"{i_t} >= {hi_t}"
        else:
            cond = (f"({i_t} <= {hi_t}) if {st_src} > 0 "
                    f"else ({i_t} >= {hi_t})")
        self.w(f"while {cond}:")
        self.ind += 1
        self.w(f"S[{s.var!r}] = {i_t}")
        self.w("loop_tick()")
        self.suite_inline(s.body)
        self.w(f"{i_t} += {st_src}")
        self.ind -= 1
        self.w(f"S[{s.var!r}] = {i_t}")

    def emit_dowhile(self, s: A.DoWhile) -> None:
        self.uses.add("loop_tick")
        g_t = self.tmp()
        self.w(f"{g_t} = 0")
        self.w(f"while {self.ex(s.cond)}:")
        self.ind += 1
        self.w(f"{g_t} += 1")
        self.w(f"if {g_t} > 10000000:")
        self.w("    raise InterpError('runaway DO WHILE')")
        self.w("loop_tick()")
        n0 = len(self.lines)
        self.suite_inline(s.body)
        if len(self.lines) == n0:
            pass  # loop_tick line keeps the suite non-empty
        self.ind -= 1

    # -- calls / IO --------------------------------------------------------

    def emit_call(self, s: A.Call) -> None:
        args_src, actuals_src = self.call_args(list(s.args))
        if self.callees[s.name][1]:
            self.has_yield = True
            self.w(f"yield from rt.call_y({s.name!r}, fr, {args_src}, "
                   f"{actuals_src})")
        else:
            self.w(f"rt.call({s.name!r}, fr, {args_src}, {actuals_src})")

    def emit_print(self, s: A.Print) -> None:
        items = ", ".join(self.ex(i) for i in s.items)
        comma = "," if len(s.items) == 1 else ""
        self.w(f"rt.emit_print(({items}{comma}))")

    # -- communication -----------------------------------------------------

    def section_src(self, subs: list[A.Expr]) -> str:
        parts = []
        for sub in subs:
            if isinstance(sub, A.Triplet):
                lo = f"int({self.ex(sub.lo)})" if sub.lo is not None \
                    else "None"
                hi = f"int({self.ex(sub.hi)})" if sub.hi is not None \
                    else "None"
                st = f"int({self.ex(sub.step)})" if sub.step is not None \
                    else "1"
                parts.append(f"({lo}, {hi}, {st})")
            else:
                parts.append(f"int({self.ex(sub)})")
        return "[" + ", ".join(parts) + "]"

    def _origin(self, s: A.Stmt) -> str:
        return _comm_origin(s, self.unit)

    def _entry(self, array: str, subs: list[A.Expr]) -> tuple[str, str]:
        ident = self.areg(array)
        self.arr_data.add(ident)
        # static id of this communication statement: its section cache
        # in the node (one per statement, exactly like the interpreter's
        # per-closure caches)
        self._nsid += 1
        sid = f"{self.unit.name}:{self._nsid}"
        e_t = self.tmp()
        self.w(f"{e_t} = rt.comm_entry({sid!r}, _a_{ident}, "
               f"{self.section_src(subs)})")
        return ident, e_t

    def emit_send(self, s: A.Send) -> None:
        self.uses.add("ctx")
        ident, e_t = self._entry(s.array, s.subs)
        p_t = self.tmp()
        self.w(f"{p_t} = {e_t}[0].copy() if {e_t}[0] is not None "
               f"else _d_{ident}[{e_t}[1]]")
        self.w(f"ctx.send(int({self.ex(s.dest)}), {s.tag}, {p_t}, "
               f"{e_t}[2], origin={self._origin(s)!r})")

    def emit_recv(self, s: A.Recv) -> None:
        self.uses.add("ctx")
        ident, e_t = self._entry(s.array, s.subs)
        p_t = self.tmp()
        self.has_yield = True
        self.w(f"{p_t} = yield from ctx.recv_y(int({self.ex(s.src)}), "
               f"{s.tag}, origin={self._origin(s)!r})")
        self.w(f"rt.write_entry(_a_{ident}, {e_t}[0], {e_t}[1], {p_t})")

    def emit_bcast(self, s: A.Bcast) -> None:
        self.uses.update(("ctx", "RANK"))
        ident, e_t = self._entry(s.array, s.subs)
        r_t = self.tmp()
        self.w(f"{r_t} = int({self.ex(s.root)})")
        origin = self._origin(s)
        bc = "yield from ctx.broadcast_y"
        self.has_yield = True
        self.w(f"if RANK == {r_t}:")
        self.w(f"    {bc}({r_t}, {e_t}[0] if {e_t}[0] is not None "
               f"else _d_{ident}[{e_t}[1]], {e_t}[2], origin={origin!r})")
        self.w("else:")
        self.w(f"    {bc}({r_t}, None, {e_t}[2], "
               f"consume=rt.consumer(_a_{ident}, {e_t}[0], {e_t}[1]), "
               f"origin={origin!r})")

    def emit_sendpack(self, s: A.SendPack) -> None:
        self.uses.add("ctx")
        pl_t, nb_t = self.tmp(), self.tmp()
        self.w(f"{pl_t} = []")
        self.w(f"{nb_t} = 0")
        for array, subs in s.parts:
            ident, e_t = self._entry(array, list(subs))
            self.w(f"{pl_t}.append({e_t}[0].copy() if {e_t}[0] is not None "
                   f"else _d_{ident}[{e_t}[1]])")
            self.w(f"{nb_t} += {e_t}[2]")
        self.w(f"ctx.send(int({self.ex(s.dest)}), {s.tag}, {pl_t}, "
               f"{nb_t}, origin={self._origin(s)!r})")

    def emit_recvpack(self, s: A.RecvPack) -> None:
        self.uses.add("ctx")
        ps_t = self.tmp()
        self.has_yield = True
        self.w(f"{ps_t} = yield from ctx.recv_y(int({self.ex(s.src)}), "
               f"{s.tag}, origin={self._origin(s)!r})")
        for k, (array, subs) in enumerate(s.parts):
            ident, e_t = self._entry(array, list(subs))
            self.w(f"rt.write_entry(_a_{ident}, {e_t}[0], {e_t}[1], "
                   f"{ps_t}[{k}])")

    def emit_reduce(self, s: A.GlobalReduce) -> None:
        self.uses.update(("ctx", "S"))
        origin = _collective_origin(s, self.unit)
        self.has_yield = True
        r_t = self.tmp()
        if s.op == "maxloc":
            self.w(f"{r_t} = yield from ctx.allreduce_y("
                   f"(S[{s.var!r}], S[{s.aux!r}]), 'maxloc', 16, "
                   f"origin={origin!r})")
            self.w(f"S[{s.var!r}], S[{s.aux!r}] = {r_t}")
        else:
            self.w(f"{r_t} = yield from ctx.allreduce_y("
                   f"S[{s.var!r}], {s.op!r}, 8, origin={origin!r})")
            self.w(f"S[{s.var!r}] = {r_t}")

    def emit_remap(self, s: A.Remap) -> None:
        ident = self.areg(s.array)
        spec = self.specs_const(s.to_specs)
        origin = _collective_origin(s, self.unit)
        self.has_yield = True
        self.w(f"yield from rt.remap_y(_a_{ident}, {spec}, {origin!r})")

    def emit_mark(self, s: A.MarkDist) -> None:
        ident = self.areg(s.array)
        spec = self.specs_const(s.to_specs)
        self.w(f"rt.mark(_a_{ident}, {spec})")


# --------------------------------------------------------------------------
# loop vectorization (source lowering of repro.codegen.vectorize.LoopPlan)
# --------------------------------------------------------------------------


class _VecPlan:
    """Numpy emission for a DO loop that :class:`LoopPlan` accepted:
    one slice assignment per statement, the plan's residual run-time
    checks, and the scalar loop's exact charges in batched form.  For a
    nest's plan, the statements run once per inner iteration over the
    block of outer iterations, whose loop-axis sections are computed
    once per nest.  Each distinct non-loop-axis offset is computed once
    per block (per inner iteration for a nest), just before the first
    statement that uses it."""

    def __init__(self, fn: _FnEmitter, plan: LoopPlan) -> None:
        self.fn = fn
        self.plan = plan
        self.do = plan.do
        self.v = plan.v
        #: array name -> first write offset source
        self.woff: dict[str, str] = {}
        #: nests only: hoisted ``ax_slice`` source -> its temp
        self.hoist: Optional[dict[str, str]] = \
            None if plan.inner is None else {}
        #: ``_offset`` call source -> its temp, and the assignments of
        #: the temps the statement being lowered introduces
        self.offs: dict[str, str] = {}
        self.new_offs: list[str] = []
        for name in plan.writes:
            fn.areg(name)

    def _off_src(self, off) -> str:
        c = const_offset(off)
        if c is not None:
            return repr(c)
        src = f"int({self.fn.ex(off[1])})"
        return src if off[0] == "pos" else f"(-{src})"

    def emit(self, lo_t: str, hi_t: str, st_src: str,
             st_lit: Optional[int]) -> None:
        fn = self.fn
        fn.uses.update(("S", "loop_tick", "compute", "ctx", "_trc"))
        n_t = fn.tmp()
        fn.w(f"{n_t} = ({hi_t} - {lo_t}) // {st_src} + 1")
        fn.w(f"if {n_t} <= 0:")
        fn.w(f"    S[{self.do.var!r}] = {lo_t}")
        fn.w("else:")
        fn.ind += 1
        small = self._emit_checks(lo_t, n_t, st_src, st_lit)
        fn.w(f"if {small}:")
        fn.ind += 1
        fn.emit_do_scalar(self.do, lo_t, hi_t, st_src, st_lit)
        fn.ind -= 1
        fn.w("else:")
        fn.ind += 1
        t0_t = fn.tmp()
        fn.w(f"{t0_t} = ctx.clock_estimate() if _trc else 0.0")
        io_t = fn.tmp()
        if self.plan.uses_iota:
            fn.w(f"{io_t} = np_arange({lo_t}, {lo_t} + {n_t} * {st_src}, "
                 f"{st_src})")
        stmts = []
        for target, axis, off, expr in self.plan.stmts:
            # the right side's offsets first: the order they evaluate in
            rhs = self._vec_ex(expr, lo_t, n_t, st_src, io_t)
            tgt = self._slice_src(target, axis, off, lo_t, n_t, st_src,
                                  self.woff.get(target.name))
            stmts += self.new_offs + [f"{tgt} = {rhs}"]
            self.new_offs = []
        ops = self.plan.ops_per_iter
        if self.hoist is None:
            for line in stmts:
                fn.w(line)
            fn.w(f"loop_tick({n_t})")
            n_src = n_t
        else:
            n_src = self._emit_inner(stmts, n_t)
        fn.w(f"compute({n_src} * {ops})")
        fn.w("if _trc:")
        fn.w(f"    trace_block(rt.tracer, ctx, {t0_t}, {fn.unit.name!r}, "
             f"{self.do.var!r}, {n_src}, {n_src} * {ops})")
        fn.w(f"S[{self.do.var!r}] = {lo_t} + {n_t} * {st_src}")
        fn.ind -= 2

    def _emit_checks(self, lo_t: str, n_t: str, st_src: str,
                     st_lit: Optional[int]) -> str:
        """Emit the plan's residual checks; returns the condition under
        which the block falls back to the scalar loop.  Checks that are
        constant at emit time are decided here (a refuted plan never
        reaches the emitter), so a plan whose checks are all constant
        has no ``ok``-chain at all."""
        fn, plan = self.fn, self.plan
        first: list[str] = []
        for name, (_, offs) in plan.writes.items():
            src = self._off_src(offs[0])
            if const_offset(offs[0]) is None:
                t = fn.tmp()
                first.append(f"{t} = {src}")
                src = t
            self.woff[name] = src
        conds = [f"{self._off_src(off)} == {self.woff[name]}"
                 for name, off in plan.offset_checks()
                 if plan.decided(name, off) is None]
        if not (first or conds or plan.checked_inv_reads):
            return f"{n_t} < {MIN_BLOCK}"
        ok_t = fn.tmp()
        fn.w(f"{ok_t} = {n_t} >= {MIN_BLOCK}")
        if first or conds:
            fn.w(f"if {ok_t}:")
            for line in first:
                fn.w(f"    {line}")
            if conds:
                fn.w(f"    {ok_t} = " + " and ".join(conds))
        # anti-dependence range checks for invariant reads of written
        # arrays (inclusive window of the block's written range)
        for name, idx in plan.checked_inv_reads:
            f_t, l_t = fn.tmp(), fn.tmp()
            fn.w(f"if {ok_t}:")
            fn.ind += 1
            fn.w(f"{f_t} = {lo_t} + {self.woff[name]}")
            fn.w(f"{l_t} = {f_t} + ({n_t} - 1) * {st_src}")
            if st_lit is not None:
                wl, wh = (f_t, l_t) if st_lit > 0 else (l_t, f_t)
                fn.w(f"{ok_t} = not ({wl} <= int({fn.ex(idx)}) <= {wh})")
            else:
                b_t = fn.tmp()
                fn.w(f"{b_t} = int({fn.ex(idx)})")
                fn.w(f"{ok_t} = not (({f_t} <= {b_t} <= {l_t}) "
                     f"if {st_src} > 0 else ({l_t} <= {b_t} <= {f_t}))")
            fn.ind -= 1
        return f"not {ok_t}"

    def _emit_inner(self, stmts: list[str], n_t: str) -> str:
        """A nest's inner loop, run in order around the block statements
        and charged as the scalar nest charges; returns the source of
        the element-iteration count ``n_out * n_in``."""
        fn = self.fn
        inner = self.plan.inner
        lo_t, hi_t, st_src, _ = fn.loop_bounds(inner)
        nin_t, j_t = fn.tmp(), fn.tmp()
        fn.w(f"{nin_t} = ({hi_t} - {lo_t}) // {st_src} + 1")
        fn.w(f"if {nin_t} > 0:")
        fn.ind += 1
        for src, t in self.hoist.items():
            fn.w(f"{t} = {src}")
        end = f"{lo_t} + {nin_t} * {st_src}"
        fn.w(f"for {j_t} in range({lo_t}, {end}, {st_src}):")
        fn.w(f"    S[{inner.var!r}] = {j_t}")
        for line in stmts:
            fn.w(f"    {line}")
        fn.w(f"S[{inner.var!r}] = {end}")
        fn.ind -= 1
        fn.w("else:")
        fn.w(f"    {nin_t} = 0")
        fn.w(f"    S[{inner.var!r}] = {lo_t}")
        fn.w(f"loop_tick({n_t})")
        fn.w(f"loop_tick({n_t} * {nin_t})")
        return f"{n_t} * {nin_t}"

    def _slice_src(self, ref: A.ArrayRef, axis: int, off, lo_t: str,
                   n_t: str, st_src: str, woff: Optional[str]) -> str:
        """Numpy subscript for a loop-carried reference: ``ax_slice``
        on the loop axis, scalar offsets elsewhere."""
        fn = self.fn
        ident = fn.areg(ref.name)
        fn.arr_data.add(ident)
        if woff is None:
            woff = self._off_src(off)
        first = lo_t if woff == "0" else f"({lo_t} + {woff})"
        last = f"({first} + ({n_t} - 1) * {st_src})"
        parts = []
        for ax, sub in enumerate(ref.subs):
            if ax == axis:
                sl = (f"ax_slice(_a_{ident}, {ax}, {first}, {last}, "
                      f"{st_src})")
                if self.hoist is not None:
                    sl = self.hoist.setdefault(sl, fn.tmp())
                parts.append(sl)
            else:
                call = f"_a_{ident}._offset({ax}, int({fn.ex(sub)}))"
                if not fn._has_user_call([sub]):
                    t = self.offs.get(call)
                    if t is None:
                        t = self.offs[call] = fn.tmp()
                        self.new_offs.append(f"{t} = {call}")
                    call = t
                parts.append(call)
        return f"_d_{ident}[{', '.join(parts)}]"

    def _vec_ex(self, e: A.Expr, lo_t: str, n_t: str, st_src: str,
                io_t: str) -> str:
        if not _mentions(e, self.v):
            return f"({self.fn.ex(e)})"
        if isinstance(e, A.Var):  # the loop variable
            return io_t
        if isinstance(e, A.ArrayRef):
            axis, off = self.plan.classify_ref(e)
            return self._slice_src(e, axis, off, lo_t, n_t, st_src, None)
        if isinstance(e, A.BinOp):
            left = self._vec_ex(e.left, lo_t, n_t, st_src, io_t)
            right = self._vec_ex(e.right, lo_t, n_t, st_src, io_t)
            if e.op == "/":
                return f"_vdiv({left}, {right})"
            return f"({left} {e.op} {right})"
        if isinstance(e, A.UnOp):
            return f"(-{self._vec_ex(e.operand, lo_t, n_t, st_src, io_t)})"
        # a VEC_INTRINSICS call (LoopPlan admits nothing else, and has
        # checked the arity)
        args = [self._vec_ex(a, lo_t, n_t, st_src, io_t) for a in e.args]
        tmpl = _VEC_CALL_SRC[e.name]
        acc = tmpl.format(*args[:2])
        for a in args[2:]:
            acc = tmpl.format(acc, a)
        return acc
