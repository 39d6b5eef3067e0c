"""Closure-compiling interpreter for Fortran D / SPMD node programs.

One interpreter instance executes one program on one simulated node
(the sequential reference is a one-node run).  Each procedure body is
compiled once into a tree of Python closures — roughly 5-10x faster
than naive re-dispatching tree walking, which matters for the dgefa
benchmark sweeps.

Semantics notes
---------------
* Fortran implicit typing: undeclared scalars starting with ``i``-``n``
  are INTEGER, others REAL.
* Array formals bind by reference (the caller's :class:`FArray` object);
  scalar formals copy in, and copy out when the actual is a variable.
* Functions return through assignment to the function name.
* The Fortran D directives are executable no-ops here: data placement is
  the *compiler's* concern; compiled node programs contain explicit
  Send/Recv/Bcast/Remap statements instead.
* All nodes initialize arrays with the same deterministic pattern, so a
  compiled program's owned regions can be compared element-for-element
  against a sequential run of the original program.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, NamedTuple, Optional

import numpy as np

from ..dist import Distribution
from ..lang import ast as A
from ..lang.printer import expr_str
from ..machine.machine import Machine, ProcContext, SimulationError
from ..machine.costmodel import CostModel, IPSC860
from ..machine.faults import FaultPlan
from ..runtime.intrinsics import PURE_INTRINSICS
from ..runtime.remap import mark_array, remap_array_y
from ..settings import Settings
from .arrays import FArray


class InterpError(Exception):
    """Semantic error during execution."""


class _Return(Exception):
    pass


class _Stop(Exception):
    pass


class Frame:
    """Activation record of one procedure instance."""

    __slots__ = ("scalars", "arrays", "unit")

    def __init__(self, unit: str) -> None:
        self.unit = unit
        self.scalars: dict[str, float | int] = {}
        self.arrays: dict[str, FArray] = {}


def default_init(name: str, indices: tuple[int, ...]) -> float:
    """Deterministic array initializer shared by sequential and SPMD
    runs (values stay O(1) under repeated F applications)."""
    h = 0
    for k in indices:
        h = (h * 31 + k * 17) % 1013
    return 1.0 + (h % 97) / 97.0


ExprFn = Callable[[Frame], object]
StmtFn = Callable[[Frame], None]
#: one compiled statement on a blocking path: ``(is_generator, fn)`` —
#: generator closures are entered with ``yield from``, plain closures
#: are called directly (they can never suspend)
Seg = tuple[bool, Callable]

#: statements that can suspend the executing rank (the matching Send
#: side is asynchronous and never blocks)
_BLOCKING_STMTS = (A.Recv, A.RecvPack, A.Bcast, A.GlobalReduce, A.Remap)


def _count_ops(e: A.Expr) -> int:
    n = 0
    for sub in A.walk_exprs(e):
        if isinstance(sub, (A.BinOp, A.UnOp, A.CallExpr)):
            n += 1
    return n


def scalar_type(unit: A.Procedure, name: str) -> str:
    """Type of scalar *name* in *unit*: its declaration wins, else the
    I-N implicit-integer rule."""
    d = unit.decl(name)
    if d is not None:
        return d.type
    return "integer" if name[0] in "ijklmn" else "real"


def fdiv(a, b):
    """Scalar ``/``: Fortran truncating division when both operands are
    integral, IEEE division otherwise.  Generated modules call it by
    this name."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        q = abs(a) // abs(b)
        return int(q if (a >= 0) == (b >= 0) else -q)
    return a / b


def format_print(rank: int, values) -> str:
    """One PRINT line as the run records it."""
    parts = [f"{v:.6g}" if isinstance(v, float) else str(v) for v in values]
    return f"[{rank}] " + " ".join(parts)


def blocking_call_in_expr(s: A.Stmt, blocking: set[str]) -> Optional[str]:
    """Name of a function in *blocking* referenced in expression
    position directly in statement *s*, else None.  A rank cannot
    suspend there (a generator cannot yield from inside an expression),
    and compiled node programs never place communication there."""
    for e in A.stmt_exprs(s):
        for sub in A.walk_exprs(e):
            if isinstance(sub, A.CallExpr) and sub.name in blocking:
                return sub.name
    return None


class UnitFacts(NamedTuple):
    """What one walk over a procedure's body establishes about it,
    independent of the program around it."""

    #: contains a blocking statement itself
    blocks: bool
    #: targets of its CALL statements
    calls: frozenset[str]
    #: every name called in expression position (user functions and
    #: intrinsics alike, in first-occurrence order) -> the scalar
    #: variables passed to it, which a user function may write
    expr_calls: dict[str, frozenset[str]]
    #: scalars its statements write: assignment targets, DO variables,
    #: reduction results and the variables a CALL passes by reference
    written: frozenset[str]


def unit_facts(unit: A.Procedure) -> UnitFacts:
    """The single statement / expression walk behind :class:`UnitFacts`."""
    blocks = False
    calls: set[str] = set()
    expr_calls: dict[str, set[str]] = {}
    written: set[str] = set()
    for s in A.walk_stmts(unit.body):
        if isinstance(s, _BLOCKING_STMTS):
            blocks = True
        if isinstance(s, A.Assign):
            if isinstance(s.target, A.Var):
                written.add(s.target.name)
        elif isinstance(s, A.Do):
            written.add(s.var)
        elif isinstance(s, A.GlobalReduce):
            written.add(s.var)
            if s.aux:
                written.add(s.aux)
        elif isinstance(s, A.Call):
            calls.add(s.name)
            written.update(a.name for a in s.args if isinstance(a, A.Var))
        for e in A.stmt_exprs(s):
            for sub in A.walk_exprs(e):
                if isinstance(sub, A.CallExpr):
                    expr_calls.setdefault(sub.name, set()).update(
                        a.name for a in sub.args if isinstance(a, A.Var)
                    )
    return UnitFacts(
        blocks, frozenset(calls),
        {name: frozenset(args) for name, args in expr_calls.items()},
        frozenset(written),
    )


def find_blocking_units(
    program: A.Program, facts: Optional[dict[str, UnitFacts]] = None
) -> set[str]:
    """Procedures that may suspend: those containing a blocking
    statement, transitively closed over CALL / function-call edges.
    Shared by the compilation here and by the node-program code
    generator (``repro.codegen``), which must place its yields at
    exactly the same procedures — and which passes the per-unit
    *facts* it has already collected."""
    if facts is None:
        facts = {u.name: unit_facts(u) for u in program.units}
    blocking = {name for name, f in facts.items() if f.blocks}
    changed = True
    while changed:
        changed = False
        for name, f in facts.items():
            if name not in blocking and (
                    f.calls & blocking or f.expr_calls.keys() & blocking):
                blocking.add(name)
                changed = True
    return blocking


class Interpreter:
    """Compiles and executes one program for one node."""

    def __init__(
        self,
        program: A.Program,
        ctx: ProcContext,
        initial_dists: dict[tuple[str, str], Distribution],
        init_fn: Callable[[str, tuple[int, ...]], float],
        blocking: set[str],
        images: dict[tuple, np.ndarray],
    ) -> None:
        self.program = program
        self.ctx = ctx
        self.initial_dists = initial_dists
        self.init_fn = init_fn
        self.comm_cache_hits = 0
        self.comm_cache_misses = 0
        self.tracer = ctx.tracer
        self.prints: list[str] = []
        self._compiled: dict[str, list[StmtFn]] = {}
        #: per-unit segment lists of the SPMD (generator) form, and the
        #: procedures that may suspend (``run_spmd`` computes the set
        #: once per program and hands it to every rank's interpreter)
        self._compiled_y: dict[str, list[Seg]] = {}
        self._blocking = blocking
        #: initial array images shared by the ranks of one run
        #: (``run_spmd`` hands every rank the same dict; see ``_fill``)
        self._images = images
        self._param_env: dict[str, dict[str, float | int]] = {}
        for unit in program.units:
            self._param_env[unit.name] = self._eval_params(unit)
        # COMMON arrays: one storage per node, visible in every frame
        self._common_store: dict[str, FArray] = {}
        self._build_commons()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run_events(self) -> "Generator[None, None, Frame]":
        """The interpreter's one entry, on every backend: execute the
        main program as a rank coroutine.

        Yields exactly at the points where the rank genuinely suspends
        (a RECV with no matching message, a non-last collective
        arrival); the :class:`~repro.machine.event.EventScheduler`
        resumes the generator when the wait is satisfied, and on the
        ``threads`` oracle the blocking ops wait inline so it never
        yields.  Statements that cannot suspend run as plain closures
        (:meth:`_compile_stmt`).
        """
        main = self.program.main
        frame = self._make_frame(main, [], None)
        try:
            yield from self._exec_unit_y(main, frame)
        except _Stop:
            pass
        return frame

    # ------------------------------------------------------------------
    # frames and declarations
    # ------------------------------------------------------------------

    def _eval_params(self, unit: A.Procedure) -> dict[str, float | int]:
        from ..analysis.symbolics import eval_const

        env: dict[str, float | int] = {}
        for p in unit.params:
            v = eval_const(p.value, env)
            if v is None:
                raise InterpError(
                    f"{unit.name}: PARAMETER {p.name} is not constant"
                )
            env[p.name] = v
        return env

    def _build_commons(self) -> None:
        try:
            decls = self.program.common_decls()
        except ValueError as e:
            raise InterpError(str(e)) from e
        if not decls:
            return
        main = self.program.main
        env = dict(self._param_env[main.name])
        for name, d in decls.items():
            bounds = []
            for lo_e, hi_e in d.dims:
                lo = self._const_bound(lo_e, env, main, name)
                hi = self._const_bound(hi_e, env, main, name)
                bounds.append((lo, hi))
            dist = self.initial_dists.get((main.name, name))
            arr = FArray(name, bounds, d.type, dist)
            self._fill(arr)
            self._common_store[name] = arr

    def _make_frame(
        self,
        unit: A.Procedure,
        args: list[object],
        caller_frame: Optional[Frame],
    ) -> Frame:
        frame = Frame(unit.name)
        frame.scalars.update(self._param_env[unit.name])
        # COMMON arrays are visible everywhere (callers may place
        # communication for globals their callees access)
        frame.arrays.update(self._common_store)
        # bind formals
        for formal, value in zip(unit.formals, args):
            if isinstance(value, FArray):
                frame.arrays[formal] = value
            else:
                frame.scalars[formal] = value
        # allocate local (non-formal) arrays
        env = dict(frame.scalars)
        for d in unit.decls:
            if not d.is_array or d.name in frame.arrays:
                continue
            bounds = []
            for lo_e, hi_e in d.dims:
                lo = self._const_bound(lo_e, env, unit, d.name)
                hi = self._const_bound(hi_e, env, unit, d.name)
                bounds.append((lo, hi))
            dist = self.initial_dists.get((unit.name, d.name))
            arr = FArray(d.name, bounds, d.type, dist)
            if unit.kind == "program":
                self._fill(arr)
            frame.arrays[d.name] = arr
        return frame

    def _const_bound(self, e, env, unit, name) -> int:
        from ..analysis.symbolics import eval_int

        v = eval_int(e, env)
        if v is None:
            raise InterpError(
                f"{unit.name}: bound {expr_str(e)} of array {name} not "
                f"computable at entry"
            )
        return v

    def _fill(self, arr: FArray) -> None:
        """Set *arr* to its initial image: computed by the first rank of
        the run to need it, copied by the others (every rank holds the
        global-size array, so P computations would be O(N·P) per run)."""
        key = (arr.name, tuple(arr.bounds), arr.dtype)
        image = self._images.get(key)
        if image is None:
            self._compute_fill(arr)
            self._images[key] = arr.data.copy()
        else:
            arr.data[...] = image

    def _compute_fill(self, arr: FArray) -> None:
        if self.init_fn is default_init:
            # vectorized twin of default_init.  The hash is a small
            # modular fold over the index tuple, so broadcasting one
            # axis at a time reproduces it bit for bit.
            shape = arr.data.shape
            h = np.zeros(shape, dtype=np.int64)
            for axis, (lo, _hi) in enumerate(arr.bounds):
                g = np.arange(lo, lo + shape[axis], dtype=np.int64)
                g = g.reshape(
                    [-1 if a == axis else 1 for a in range(len(shape))]
                )
                h = (h * 31 + g * 17) % 1013
            arr.data[...] = 1.0 + (h % 97) / 97.0
            return
        it = np.nditer(arr.data, flags=["multi_index"], op_flags=["writeonly"])
        los = [lo for lo, _ in arr.bounds]
        for cell in it:
            g = tuple(o + l for o, l in zip(it.multi_index, los))
            cell[...] = self.init_fn(arr.name, g)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def _exec_unit(self, unit: A.Procedure, frame: Frame) -> None:
        code = self._compiled.get(unit.name)
        if code is None:
            code = [self._compile_stmt(s, unit) for s in unit.body]
            self._compiled[unit.name] = code
        try:
            for fn in code:
                fn(frame)
        except _Return:
            pass

    def enter_call(
        self, name: str, args: list[object], frame: Frame
    ) -> tuple[A.Procedure, Frame]:
        """The call convention: every caller — the CALL, generator-CALL
        and function-reference closures here, ``NodeRt.call``/``call_y``
        for generated code — is ``enter_call`` -> run the body ->
        :meth:`leave_call`.  Binds the evaluated actuals *args* (the
        :class:`FArray` itself for an array) to a fresh frame of
        procedure *name* and charges the call overhead."""
        unit = self.program.unit(name)
        callee_frame = self._make_frame(unit, args, frame)
        self.ctx.compute(3 + len(args))  # call overhead
        return unit, callee_frame

    @staticmethod
    def leave_call(unit: A.Procedure, var_actuals: tuple, frame: Frame,
                   callee_frame: Frame) -> None:
        """Copy scalar formals out to the actuals that are variables:
        ``var_actuals[k]`` is the name of the k-th actual when it is a
        bare variable, else None."""
        for formal, actual in zip(unit.formals, var_actuals):
            if actual is not None and actual not in frame.arrays \
                    and formal in callee_frame.scalars:
                frame.scalars[actual] = callee_frame.scalars[formal]

    def _compile_actuals(
        self, args: list[A.Expr], unit: A.Procedure
    ) -> tuple[Callable[[Frame], list], tuple]:
        """``(actuals_fn, var_actuals)`` of a call site: a bare variable
        naming an array of the calling frame passes the array itself."""
        var_actuals = tuple(
            a.name if isinstance(a, A.Var) else None for a in args
        )
        arg_fns = [self._compile_expr(a, unit) for a in args]

        def actuals(fr: Frame) -> list:
            arrays = fr.arrays
            return [arrays[v] if v in arrays else fn(fr)
                    for v, fn in zip(var_actuals, arg_fns)]

        return actuals, var_actuals

    def _exec_unit_y(
        self, unit: A.Procedure, frame: Frame
    ) -> Generator[None, None, None]:
        """Generator twin of :meth:`_exec_unit` for units that may
        suspend."""
        segs = self._compiled_y.get(unit.name)
        if segs is None:
            segs = self._compile_block_y(unit.body, unit)
            self._compiled_y[unit.name] = segs
        try:
            for is_gen, fn in segs:
                if is_gen:
                    yield from fn(frame)
                else:
                    fn(frame)
        except _Return:
            pass

    # ------------------------------------------------------------------
    # expression compilation
    # ------------------------------------------------------------------

    def _compile_expr(self, e: A.Expr, unit: A.Procedure) -> ExprFn:
        if isinstance(e, A.Num):
            v = e.value
            return lambda fr: v
        if isinstance(e, A.Logical):
            v = e.value
            return lambda fr: v
        if isinstance(e, A.Str):
            v = e.value
            return lambda fr: v
        if isinstance(e, A.Var):
            name = e.name
            const = self._param_env[unit.name].get(name)
            if const is not None and unit.decl(name) is None:
                return lambda fr: fr.scalars.get(name, const)

            def read_var(fr: Frame, name=name):
                try:
                    return fr.scalars[name]
                except KeyError:
                    if name in fr.arrays:
                        raise InterpError(
                            f"{fr.unit}: whole-array reference "
                            f"{name!r} in scalar context"
                        ) from None
                    raise InterpError(
                        f"{fr.unit}: read of undefined scalar {name!r}"
                    ) from None

            return read_var
        if isinstance(e, A.ArrayRef):
            name = e.name
            sub_fns = [self._compile_expr(s, unit) for s in e.subs]

            def read_elem(fr: Frame):
                arr = fr.arrays[name]
                idx = [int(f(fr)) for f in sub_fns]
                return arr.get(idx)

            return read_elem
        if isinstance(e, A.BinOp):
            fused = self._fuse_owner_guard(e, unit)
            if fused is not None:
                return fused
            lf = self._compile_expr(e.left, unit)
            rf = self._compile_expr(e.right, unit)
            return _binop_fn(e.op, lf, rf)
        if isinstance(e, A.UnOp):
            of = self._compile_expr(e.operand, unit)
            if e.op == "-":
                return lambda fr: -of(fr)
            if e.op == ".not.":
                return lambda fr: not of(fr)
            raise InterpError(f"unknown unary op {e.op}")
        if isinstance(e, A.CallExpr):
            return self._compile_call_expr(e, unit)
        if isinstance(e, A.Triplet):
            raise InterpError("triplet outside communication statement")
        raise InterpError(f"cannot compile expression {e!r}")

    def _fuse_owner_guard(
        self, e: A.BinOp, unit: A.Procedure
    ) -> Optional[ExprFn]:
        """Fused closures for the run-time-resolution guard shapes
        ``v == owner(ref)`` / ``v /= owner(ref)`` and conjunctions of
        two of them.  These conditions run once per array element per
        processor, so collapsing the generic lambda tree to one closure
        is a measurable win.  Purely an evaluation-speed specialization:
        operation counts and results match the generic path exactly."""
        if e.op == ".and.":
            lf = self._fuse_owner_guard(e.left, unit) \
                if isinstance(e.left, A.BinOp) else None
            rf = self._fuse_owner_guard(e.right, unit) \
                if isinstance(e.right, A.BinOp) else None
            if lf is not None and rf is not None:
                return lambda fr: lf(fr) and rf(fr)
            return None
        if e.op not in ("==", "/="):
            return None
        sides = (e.left, e.right)
        call = next((x for x in sides if isinstance(x, A.CallExpr)
                     and x.name == "owner"), None)
        var = next((x for x in sides if isinstance(x, A.Var)), None)
        if call is None or var is None:
            return None
        owner_fn = self._compile_call_expr(call, unit)
        var_fn = self._compile_expr(var, unit)
        want = e.op == "=="

        def cmp_owner(fr: Frame) -> bool:
            return (var_fn(fr) == owner_fn(fr)) == want

        return cmp_owner

    def _compile_call_expr(self, e: A.CallExpr, unit: A.Procedure) -> ExprFn:
        name = e.name
        if name == "myproc":
            rank = self.ctx.rank
            return lambda fr: rank
        if name == "owner":
            if len(e.args) != 1 or not isinstance(e.args[0], A.ArrayRef):
                raise InterpError("owner() takes one array element")
            ref = e.args[0]
            sub_fns = [self._compile_expr(s, unit) for s in ref.subs]
            arr_name = ref.name
            # run-time resolution evaluates owner() once per element per
            # processor: specialize the common arities
            if len(sub_fns) == 1:
                s0 = sub_fns[0]

                def owner_fn(fr: Frame):
                    dist = fr.arrays[arr_name].dist
                    if dist is None or dist.is_replicated:
                        return 0
                    return dist.owner((int(s0(fr)),))
            elif len(sub_fns) == 2:
                s0, s1 = sub_fns

                def owner_fn(fr: Frame):
                    dist = fr.arrays[arr_name].dist
                    if dist is None or dist.is_replicated:
                        return 0
                    return dist.owner((int(s0(fr)), int(s1(fr))))
            else:
                def owner_fn(fr: Frame):
                    dist = fr.arrays[arr_name].dist
                    if dist is None or dist.is_replicated:
                        return 0
                    return dist.owner([int(f(fr)) for f in sub_fns])

            return owner_fn
        if name in PURE_INTRINSICS:
            fn = PURE_INTRINSICS[name]
            arg_fns = [self._compile_expr(a, unit) for a in e.args]
            if len(arg_fns) == 1:
                a0 = arg_fns[0]
                return lambda fr: fn(a0(fr))
            if len(arg_fns) == 2:
                a0, a1 = arg_fns
                return lambda fr: fn(a0(fr), a1(fr))
            return lambda fr: fn(*[f(fr) for f in arg_fns])
        # user function
        try:
            callee = self.program.unit(name)
        except KeyError:
            raise InterpError(
                f"{unit.name}: call of unknown function {name!r}"
            ) from None
        if callee.kind != "function":
            raise InterpError(f"{name} is not a function")
        actuals, var_actuals = self._compile_actuals(e.args, unit)

        def call_fn(fr: Frame):
            callee, callee_frame = self.enter_call(name, actuals(fr), fr)
            self._exec_unit(callee, callee_frame)
            self.leave_call(callee, var_actuals, fr, callee_frame)
            try:
                return callee_frame.scalars[name]
            except KeyError:
                raise InterpError(
                    f"function {name} returned no value"
                ) from None

        return call_fn

    # ------------------------------------------------------------------
    # statement compilation
    # ------------------------------------------------------------------

    def _compile_block(
        self, body: list[A.Stmt], unit: A.Procedure
    ) -> list[StmtFn]:
        return [self._compile_stmt(s, unit) for s in body]

    def _compile_bounds(
        self, s: A.Do, unit: A.Procedure
    ) -> Callable[[Frame], tuple[int, int, int]]:
        """The DO prologue of the scalar, generator and block forms of
        a loop: ``lo``, ``hi``, ``step`` evaluated in that order, a zero
        step refused."""
        lo_fn = self._compile_expr(s.lo, unit)
        hi_fn = self._compile_expr(s.hi, unit)
        st_fn = self._compile_expr(s.step, unit)
        unit_name = unit.name

        def bounds(fr: Frame) -> tuple[int, int, int]:
            lo = int(lo_fn(fr))
            hi = int(hi_fn(fr))
            st = int(st_fn(fr))
            if st == 0:
                raise InterpError(f"{unit_name}: zero DO step")
            return lo, hi, st

        return bounds

    def _compile_stmt(self, s: A.Stmt, unit: A.Procedure) -> StmtFn:
        ctx = self.ctx
        if isinstance(s, A.Assign):
            expr_fn = self._compile_expr(s.expr, unit)
            ops = _count_ops(s.expr) + 1
            if isinstance(s.target, A.Var):
                name = s.target.name
                cast = int if scalar_type(unit, name) == "integer" else float

                def assign_scalar(fr: Frame):
                    fr.scalars[name] = cast(expr_fn(fr))
                    ctx.compute(ops)

                return assign_scalar
            name = s.target.name
            sub_fns = [self._compile_expr(x, unit) for x in s.target.subs]
            ops += len(sub_fns)

            def assign_elem(fr: Frame):
                arr = fr.arrays[name]
                idx = [int(f(fr)) for f in sub_fns]
                arr.set(idx, expr_fn(fr))
                ctx.compute(ops)

            return assign_elem
        if isinstance(s, A.If):
            cond_fn = self._compile_expr(s.cond, unit)
            cond_ops = _count_ops(s.cond) or 1
            then_code = self._compile_block(s.then_body, unit)
            else_code = self._compile_block(s.else_body, unit)
            # run-time resolution executes one guard per element: bind
            # the tick method once instead of resolving it every time
            guard_tick = ctx.guard_tick

            def run_if(fr: Frame):
                guard_tick(cond_ops)
                branch = then_code if cond_fn(fr) else else_code
                for fn in branch:
                    fn(fr)

            return run_if
        if isinstance(s, A.Do):
            var = s.var
            bounds = self._compile_bounds(s, unit)
            body_code = self._compile_block(s.body, unit)

            # bind the tick method once per compiled loop rather than
            # resolving the attribute every iteration
            loop_tick = ctx.loop_tick

            def run_loop(fr: Frame):
                lo, hi, st = bounds(fr)
                scal = fr.scalars
                i = lo
                if st > 0:
                    while i <= hi:
                        scal[var] = i
                        loop_tick()
                        for fn in body_code:
                            fn(fr)
                        i += st
                else:
                    while i >= hi:
                        scal[var] = i
                        loop_tick()
                        for fn in body_code:
                            fn(fr)
                        i += st
                scal[var] = i

            return run_loop
        if isinstance(s, A.DoWhile):
            cond_fn = self._compile_expr(s.cond, unit)
            body_code = self._compile_block(s.body, unit)

            def run_while(fr: Frame):
                guard = 0
                while cond_fn(fr):
                    guard += 1
                    if guard > 10_000_000:
                        raise InterpError("runaway DO WHILE")
                    ctx.loop_tick()
                    for fn in body_code:
                        fn(fr)

            return run_while
        if isinstance(s, A.Call):
            name = s.name
            actuals, var_actuals = self._compile_actuals(s.args, unit)

            def run_call(fr: Frame):
                callee, callee_frame = self.enter_call(name, actuals(fr), fr)
                self._exec_unit(callee, callee_frame)
                self.leave_call(callee, var_actuals, fr, callee_frame)

            return run_call
        if isinstance(s, A.Return):
            def run_return(fr: Frame):
                raise _Return()

            return run_return
        if isinstance(s, A.Stop):
            def run_stop(fr: Frame):
                raise _Stop()

            return run_stop
        if isinstance(s, A.Continue):
            return lambda fr: None
        if isinstance(s, A.Print):
            item_fns = [self._compile_expr(i, unit) for i in s.items]
            rank = ctx.rank

            def run_print(fr: Frame):
                self.prints.append(
                    format_print(rank, [fn(fr) for fn in item_fns])
                )

            return run_print
        if isinstance(s, (A.Decomposition, A.Align, A.Distribute)):
            # declarative placement: consumed by the compiler; a no-op
            # when the uncompiled source runs (the sequential reference)
            return lambda fr: None
        if isinstance(s, A.SetMyProc):
            var = s.var
            rank = ctx.rank

            def run_setmyproc(fr: Frame):
                fr.scalars[var] = rank

            return run_setmyproc
        if isinstance(s, A.Send):
            return self._compile_comm(s, unit)
        if isinstance(s, A.SendPack):
            return self._compile_pack(s, unit)
        if isinstance(s, A.MarkDist):
            specs = list(s.to_specs)
            name = s.array
            nprocs = ctx.nprocs

            def run_mark(fr: Frame):
                arr = fr.arrays[name]
                mark_array(arr, Distribution.from_specs(specs, arr.bounds, nprocs))

            return run_mark
        raise InterpError(f"cannot compile statement {type(s).__name__}")

    # -- compilation of statements that may suspend --------------------------
    #
    # Each rank runs as a generator coroutine that yields only at
    # genuine suspension points.  Compiling every statement as a
    # generator would slow the common (non-blocking) path dramatically,
    # so compilation is split: a fixpoint over the call graph
    # (``find_blocking_units``) marks the procedures that can suspend,
    # and only statements on a blocking path become generator closures
    # — all other statements go through ``_compile_stmt``, grouped into
    # straight-line segments.

    def _stmt_may_block(self, s: A.Stmt, unit: A.Procedure) -> bool:
        fn_name = blocking_call_in_expr(s, self._blocking)
        if fn_name is not None:
            # a compile-time error, not a silent wrong answer
            raise InterpError(
                f"{unit.name}: function {fn_name!r} communicates; "
                f"a rank cannot suspend inside an expression — "
                f"restructure as a CALL statement"
            )
        if isinstance(s, _BLOCKING_STMTS):
            return True
        if isinstance(s, A.Call):
            return s.name in self._blocking
        return any(
            self._stmt_may_block(c, unit)
            for blk in A.child_blocks(s) for c in blk
        )

    def _compile_block_y(
        self, body: list[A.Stmt], unit: A.Procedure
    ) -> list[Seg]:
        """Compile *body* into segments: runs of non-blocking statements
        collapse to one plain closure (the fast path stays the fast
        path); blocking statements become generator closures."""
        segs: list[Seg] = []
        plain: list[StmtFn] = []

        def flush() -> None:
            if not plain:
                return
            if len(plain) == 1:
                segs.append((False, plain[0]))
            else:
                fns = tuple(plain)

                def run_plain(fr: Frame, fns=fns) -> None:
                    for fn in fns:
                        fn(fr)

                segs.append((False, run_plain))
            plain.clear()

        for s in body:
            if self._stmt_may_block(s, unit):
                flush()
                segs.append((True, self._compile_stmt_y(s, unit)))
            else:
                plain.append(self._compile_stmt(s, unit))
        flush()
        return segs

    def _compile_stmt_y(self, s: A.Stmt, unit: A.Procedure) -> Callable:
        """Generator closure for one statement on a blocking path.
        Charge ordering of IF/DO/DO WHILE/CALL mirrors
        :meth:`_compile_stmt` exactly — where a statement sits must not
        change the virtual clock."""
        ctx = self.ctx
        if isinstance(s, A.If):
            cond_fn = self._compile_expr(s.cond, unit)
            cond_ops = _count_ops(s.cond) or 1
            then_segs = self._compile_block_y(s.then_body, unit)
            else_segs = self._compile_block_y(s.else_body, unit)
            guard_tick = ctx.guard_tick

            def run_if_y(fr: Frame):
                guard_tick(cond_ops)
                branch = then_segs if cond_fn(fr) else else_segs
                for is_gen, fn in branch:
                    if is_gen:
                        yield from fn(fr)
                    else:
                        fn(fr)

            return run_if_y
        if isinstance(s, A.Do):
            var = s.var
            bounds = self._compile_bounds(s, unit)
            body_segs = self._compile_block_y(s.body, unit)
            loop_tick = ctx.loop_tick

            def run_do_y(fr: Frame):
                lo, hi, st = bounds(fr)
                scal = fr.scalars
                i = lo
                while (i <= hi) if st > 0 else (i >= hi):
                    scal[var] = i
                    loop_tick()
                    for is_gen, fn in body_segs:
                        if is_gen:
                            yield from fn(fr)
                        else:
                            fn(fr)
                    i += st
                scal[var] = i

            return run_do_y
        if isinstance(s, A.DoWhile):
            cond_fn = self._compile_expr(s.cond, unit)
            body_segs = self._compile_block_y(s.body, unit)

            def run_while_y(fr: Frame):
                guard = 0
                while cond_fn(fr):
                    guard += 1
                    if guard > 10_000_000:
                        raise InterpError("runaway DO WHILE")
                    ctx.loop_tick()
                    for is_gen, fn in body_segs:
                        if is_gen:
                            yield from fn(fr)
                        else:
                            fn(fr)

            return run_while_y
        if isinstance(s, A.Call):
            name = s.name
            actuals, var_actuals = self._compile_actuals(s.args, unit)

            def run_call_y(fr: Frame):
                callee, callee_frame = self.enter_call(name, actuals(fr), fr)
                yield from self._exec_unit_y(callee, callee_frame)
                self.leave_call(callee, var_actuals, fr, callee_frame)

            return run_call_y
        if isinstance(s, (A.Recv, A.Bcast)):
            return self._compile_comm(s, unit)
        if isinstance(s, A.RecvPack):
            return self._compile_pack(s, unit)
        if isinstance(s, A.GlobalReduce):
            return self._compile_reduce(s, unit)
        if isinstance(s, A.Remap):
            return self._compile_remap(s, unit)
        raise InterpError(  # pragma: no cover - _stmt_may_block gates this
            f"statement {type(s).__name__} cannot suspend"
        )

    # -- communication statements ------------------------------------------

    def _compile_section(
        self, subs: list[A.Expr], unit: A.Procedure
    ) -> Callable[[Frame], list]:
        parts = []
        for sub in subs:
            if isinstance(sub, A.Triplet):
                lo_fn = self._compile_expr(sub.lo, unit) if sub.lo else None
                hi_fn = self._compile_expr(sub.hi, unit) if sub.hi else None
                st_fn = self._compile_expr(sub.step, unit) if sub.step else None
                parts.append(("t", lo_fn, hi_fn, st_fn))
            else:
                parts.append(("i", self._compile_expr(sub, unit)))

        def build(fr: Frame) -> list:
            out = []
            for p in parts:
                if p[0] == "i":
                    out.append(int(p[1](fr)))
                else:
                    _, lo_fn, hi_fn, st_fn = p
                    lo = int(lo_fn(fr)) if lo_fn else None
                    hi = int(hi_fn(fr)) if hi_fn else None
                    st = int(st_fn(fr)) if st_fn else 1
                    out.append((lo, hi, st))
            return out

        return build

    def _resolve_whole_dims(self, arr: FArray, subs: list) -> list:
        out = []
        for axis, s in enumerate(subs):
            if isinstance(s, tuple):
                lo, hi, st = s
                blo, bhi = arr.bounds[axis]
                out.append((lo if lo is not None else blo,
                            hi if hi is not None else bhi, st))
            else:
                out.append(s)
        return out

    def _comm_entry(
        self, cache: dict, arr: FArray, raw: list
    ) -> tuple[Optional[np.ndarray], tuple, int]:
        """Memoized resolution of one communication section.

        Maps the raw section values of a ``CommAction`` execution to
        ``(view, slices, nbytes)``: the numpy view of the section (None
        for a single element), the index tuple, and the payload size.
        Steady-state iterations of a compiled comm statement re-derive
        nothing — a dict probe replaces whole-dim resolution, bounds
        checks, and index arithmetic.  Caching the *view* is safe
        because ``FArray.data`` is allocated exactly once and the
        section depends only on the immutable bounds and the key.
        """
        key = (arr, tuple(raw))
        entry = cache.get(key)
        if entry is not None:
            self.comm_cache_hits += 1
            if self.tracer is not None:
                self.tracer.emit(self.ctx.rank, (
                    "interp.cache", self.ctx.clock_estimate(), 0.0,
                    arr.name, True,
                ))
            return entry
        self.comm_cache_misses += 1
        if self.tracer is not None:
            self.tracer.emit(self.ctx.rank, (
                "interp.cache", self.ctx.clock_estimate(), 0.0,
                arr.name, False,
            ))
        subs = self._resolve_whole_dims(arr, raw)
        slices = arr._slices(subs)
        view = arr.data[slices]
        if not isinstance(view, np.ndarray):
            view = None  # single element: index directly, not via a view
        entry = (view, slices, arr.section_bytes(subs))
        cache[key] = entry
        return entry

    @staticmethod
    def _write_entry(arr: FArray, view: Optional[np.ndarray],
                     slices: tuple, payload) -> None:
        """``FArray.write_section`` against a cached entry."""
        if view is None:
            arr.data[slices] = payload
            return
        payload = np.asarray(payload)
        if payload.shape != view.shape:
            payload = payload.reshape(view.shape)
        view[...] = payload

    @staticmethod
    def _comm_origin(s: A.Stmt, unit: A.Procedure) -> str:
        """Trace provenance of a communication statement, computed once
        at closure-compile time: the codegen comment (already
        ``proc:expr`` for compiler-placed messages), qualified with the
        procedure name when it is a bare annotation like ``rtr``."""
        c = getattr(s, "comment", "") or ""
        if not c:
            return f"{unit.name}:?"
        if ":" in c:
            return c
        return f"{unit.name}:{c}"

    def _compile_comm(self, s: A.Stmt, unit: A.Procedure) -> Callable:
        """Send compiles to a plain closure (it never blocks); Recv and
        Bcast to generator closures."""
        section_fn = self._compile_section(s.subs, unit)
        name = s.array
        tag = s.tag
        origin = self._comm_origin(s, unit)
        cache: dict = {}
        if isinstance(s, A.Send):
            dest_fn = self._compile_expr(s.dest, unit)

            def run_send(fr: Frame):
                arr = fr.arrays[name]
                view, slices, nbytes = self._comm_entry(
                    cache, arr, section_fn(fr)
                )
                # np scalars are immutable values, safe to send uncopied
                payload = view.copy() if view is not None \
                    else arr.data[slices]
                self.ctx.send(int(dest_fn(fr)), tag, payload, nbytes,
                              origin=origin)

            return run_send
        if isinstance(s, A.Recv):
            src_fn = self._compile_expr(s.src, unit)

            def run_recv_y(fr: Frame):
                arr = fr.arrays[name]
                view, slices, _nbytes = self._comm_entry(
                    cache, arr, section_fn(fr)
                )
                payload = yield from self.ctx.recv_y(
                    int(src_fn(fr)), tag, origin=origin
                )
                self._write_entry(arr, view, slices, payload)

            return run_recv_y
        # broadcast
        root_fn = self._compile_expr(s.root, unit)

        def run_bcast_y(fr: Frame):
            arr = fr.arrays[name]
            view, slices, nbytes = self._comm_entry(
                cache, arr, section_fn(fr)
            )
            root = int(root_fn(fr))
            me = self.ctx.rank
            if me == root:
                # zero-copy: the collective's consume rendezvous keeps
                # every consumer's copy ahead of any mutation of the
                # source, so the root can pass a view of its own array
                yield from self.ctx.broadcast_y(
                    root,
                    view if view is not None else arr.data[slices],
                    nbytes, origin=origin,
                )
            else:
                yield from self.ctx.broadcast_y(
                    root, None, nbytes,
                    consume=lambda data: self._write_entry(
                        arr, view, slices, data
                    ),
                    origin=origin,
                )

        return run_bcast_y

    def _compile_pack(self, s: A.Stmt, unit: A.Procedure) -> Callable:
        """Aggregated multi-section messages (SendPack/RecvPack): all
        parts travel as one message (one startup charge).  SendPack is
        a plain closure, RecvPack a generator closure."""
        part_fns = [
            (array, self._compile_section(list(subs), unit), {})
            for array, subs in s.parts
        ]
        tag = s.tag
        origin = self._comm_origin(s, unit)
        if isinstance(s, A.SendPack):
            dest_fn = self._compile_expr(s.dest, unit)

            def run_sendpack(fr: Frame):
                payloads = []
                nbytes = 0
                for array, sec_fn, cache in part_fns:
                    arr = fr.arrays[array]
                    view, slices, nb = self._comm_entry(
                        cache, arr, sec_fn(fr)
                    )
                    payloads.append(
                        view.copy() if view is not None
                        else arr.data[slices]
                    )
                    nbytes += nb
                self.ctx.send(int(dest_fn(fr)), tag, payloads, nbytes,
                              origin=origin)

            return run_sendpack
        src_fn = self._compile_expr(s.src, unit)

        def run_recvpack_y(fr: Frame):
            payloads = yield from self.ctx.recv_y(
                int(src_fn(fr)), tag, origin=origin
            )
            for (array, sec_fn, cache), data in zip(part_fns, payloads):
                arr = fr.arrays[array]
                view, slices, _nb = self._comm_entry(cache, arr, sec_fn(fr))
                self._write_entry(arr, view, slices, data)

        return run_recvpack_y

    def _compile_reduce(self, s: A.GlobalReduce,
                        unit: A.Procedure) -> Callable:
        var, op, aux = s.var, s.op, s.aux
        origin = getattr(s, "comment", "") or f"{unit.name}:{op} {var}"

        def run_reduce_y(fr: Frame):
            if op == "maxloc":
                value = (fr.scalars[var], fr.scalars[aux])
                result = yield from self.ctx.allreduce_y(
                    value, "maxloc", 16, origin=origin
                )
                fr.scalars[var], fr.scalars[aux] = result
            else:
                result = yield from self.ctx.allreduce_y(
                    fr.scalars[var], op, 8, origin=origin
                )
                fr.scalars[var] = result

        return run_reduce_y

    def _compile_remap(self, s: A.Remap, unit: A.Procedure) -> Callable:
        name = s.array
        specs = list(s.to_specs)
        origin = getattr(s, "comment", "") or f"{unit.name}:remap {name}"

        def run_remap_y(fr: Frame):
            arr = fr.arrays[name]
            new = Distribution.from_specs(specs, arr.bounds, self.ctx.nprocs)
            yield from remap_array_y(self.ctx, arr, new, origin=origin)

        return run_remap_y


def _binop_fn(op: str, lf: ExprFn, rf: ExprFn) -> ExprFn:
    if op == "+":
        return lambda fr: lf(fr) + rf(fr)
    if op == "-":
        return lambda fr: lf(fr) - rf(fr)
    if op == "*":
        return lambda fr: lf(fr) * rf(fr)
    if op == "/":
        return lambda fr: fdiv(lf(fr), rf(fr))
    if op == "**":
        return lambda fr: lf(fr) ** rf(fr)
    if op == "==":
        return lambda fr: lf(fr) == rf(fr)
    if op == "/=":
        return lambda fr: lf(fr) != rf(fr)
    if op == "<":
        return lambda fr: lf(fr) < rf(fr)
    if op == "<=":
        return lambda fr: lf(fr) <= rf(fr)
    if op == ">":
        return lambda fr: lf(fr) > rf(fr)
    if op == ">=":
        return lambda fr: lf(fr) >= rf(fr)
    if op == ".and.":
        return lambda fr: bool(lf(fr)) and bool(rf(fr))
    if op == ".or.":
        return lambda fr: bool(lf(fr)) or bool(rf(fr))
    raise InterpError(f"unknown operator {op}")


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------


def run_sequential(
    program: A.Program,
    init_fn: Callable[[str, tuple[int, ...]], float] = default_init,
    vectorize: Optional[bool] = None,
) -> Frame:
    """Reference execution of the original (pre-compilation) program.

    The uncompiled source runs on one simulated processor, through the
    generated engine (the interpreter under ``REPRO_CODEGEN=0``); the
    Fortran D compiler plays no part, so the reference stays independent
    of the SPMD run it checks.  Every run knob is passed explicitly, so
    no ``REPRO_*`` fault, scheduler, topology, trace, metrics or timeout
    setting reaches it.  A rank's error reaches the caller unwrapped.
    When the generated run fails, the interpreter runs: its error
    propagates, and if it succeeds the generated failure is raised."""
    def at_p1(codegen: bool) -> Frame:
        try:
            return run_spmd(
                program, 1, init_fn=init_fn, timeout_s=math.inf,
                vectorize=vectorize, faults=FaultPlan(), scheduler="event",
                trace=False, topology="uniform", codegen=codegen,
                metrics=False,
            ).frames[0]
        except SimulationError as e:  # re-raise the rank's own error
            if e.__cause__ is None:
                raise
            raise e.__cause__ from e.__cause__.__cause__

    if not Settings.from_env().codegen:
        return at_p1(False)
    try:
        return at_p1(True)
    except Exception as generated:
        at_p1(False)
        raise InterpError(
            "generated sequential reference failed on a program the "
            "interpreter runs"
        ) from generated


class SPMDResult:
    """Result of a distributed run: stats, per-rank frames, and arrays
    gathered back to global shape from their owners."""

    def __init__(self, stats, frames: list[Frame], prints: list[str],
                 trace=None) -> None:
        self.stats = stats
        self.frames = frames
        self.prints = prints
        #: the run's Tracer when tracing was on, else None
        self.trace = trace

    def gathered(self, name: str) -> np.ndarray:
        """Assemble the global array from each rank's owned regions
        (per the array's final distribution)."""
        arrs = [fr.arrays[name] for fr in self.frames]
        result = np.array(arrs[0].data, copy=True)
        dist = arrs[0].dist
        if dist is None or dist.is_replicated:
            return result
        los = [lo for lo, _ in arrs[0].bounds]
        for rank, arr in enumerate(arrs):
            d = arr.dist if arr.dist is not None else dist
            for piece in d.local_index_sets(rank):
                if piece.empty:
                    continue
                subs = [(dd.lo, dd.hi, dd.step) for dd in piece.dims]
                slices = tuple(
                    slice(lo - o, hi - o + 1, st)
                    for (lo, hi, st), o in zip(subs, los)
                )
                result[slices] = arr.data[slices]
        return result


def run_spmd(
    program: A.Program,
    nprocs: int,
    cost: CostModel = IPSC860,
    initial_dists: Optional[dict[tuple[str, str], Distribution]] = None,
    init_fn: Callable[[str, tuple[int, ...]], float] = default_init,
    timeout_s: Optional[float] = None,
    vectorize: Optional[bool] = None,
    faults=None,
    scheduler: Optional[str] = None,
    trace=None,
    topology=None,
    codegen: Optional[bool] = None,
    codegen_strict: bool = False,
    metrics=None,
) -> SPMDResult:
    """Run a compiled SPMD node program on the simulated machine.

    Every argument left None falls back to its ``REPRO_*`` setting
    (DESIGN.md § 8 Settings): *timeout_s* is the wall-clock safety net
    (deadlocks are detected instantly); *faults* a
    :class:`~repro.machine.faults.FaultPlan`; *scheduler* the simulation
    backend; *trace* a :class:`~repro.obs.Tracer` or ``True`` for a
    fresh one (a file ``REPRO_TRACE`` names receives the Chrome trace);
    *topology* a :class:`~repro.machine.topology.Topology` or a name like
    ``"mesh2d:contention"``; *codegen* the generated node-program path
    (*vectorize* lets it emit numpy blocks for the loops
    :class:`~repro.codegen.vectorize.LoopPlan` accepts, and
    *codegen_strict* escalates per-procedure demotions to errors; the
    interpreter always runs scalar);
    *metrics* a :class:`~repro.obs.MetricsRegistry` or ``True`` for the
    process-wide default registry.
    """
    # deferred import: repro.codegen.emit imports this module
    from ..codegen import CodegenError, NodeRt, get_generated

    machine = Machine(nprocs, cost, timeout_s, faults=faults,
                      scheduler=scheduler, trace=trace, topology=topology,
                      metrics=metrics)
    prints: list[str] = []
    # resolved once per run
    settings = Settings.from_env()

    gen = None
    if settings.codegen if codegen is None else codegen:
        if vectorize is None:
            vectorize = settings.vectorize
        try:
            gen, gh, gm = get_generated(
                program, nprocs, bool(vectorize), strict=codegen_strict,
            )
        except CodegenError:
            raise
        except Exception:  # pragma: no cover - codegen must not kill runs
            gen = None
        if gen is not None:
            machine.stats.record_codegen(gh, gm, len(gen.demotions))
            if machine.tracer is not None:
                for cls, variant, proc, cause in gen.demotions:
                    machine.tracer.decision(
                        "codegen-demotion", proc=proc, rank_class=cls,
                        variant=variant, cause=cause,
                    )

    initial_dists = initial_dists or {}
    # once per run, not once per rank: a generated program carries the
    # set its emission was decided by
    blocking = gen.blocking if gen is not None \
        else find_blocking_units(program)
    # per run, not per process: an init_fn's purity cannot be keyed
    # across runs (two `threads` ranks computing one image is benign)
    images: dict[tuple, np.ndarray] = {}

    def make_node(rank: int):
        mod = gen.module_for(rank) if gen is not None else None

        # generator node program: the machine drives each rank as a
        # coroutine, suspending exactly at blocking communication
        def node(ctx: ProcContext):
            interp = Interpreter(
                program, ctx=ctx, initial_dists=initial_dists,
                init_fn=init_fn, blocking=blocking, images=images,
            )
            if mod is not None:
                frame = yield from NodeRt(interp, mod).run_y()
            else:
                frame = yield from interp.run_events()
            ctx.stats.record_comm_cache(
                interp.comm_cache_hits, interp.comm_cache_misses
            )
            prints.extend(interp.prints)
            return frame

        return node

    frames = machine.run([make_node(r) for r in range(nprocs)])
    # the result carries a trace only when one was asked for: a ring
    # the machine attached on its own is its flight recorder
    tracer = machine.tracer
    if tracer is not None and tracer is not trace \
            and tracer.capacity is not None:
        tracer = None
    if tracer is not None and trace is None \
            and isinstance(settings.trace, str):
        from ..obs import write_chrome_trace

        write_chrome_trace(tracer, settings.trace)
    return SPMDResult(machine.stats, frames, prints, trace=tracer)
