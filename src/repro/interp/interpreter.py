"""Closure-compiling interpreter for Fortran D / SPMD node programs:
the oracle the generated engine is checked against.

One interpreter runs one rank's procedures on that rank's
:class:`~repro.runtime.node.Node`, which owns everything the two
engines share (frames, storage, the call convention, communication
sections, remaps, prints and the scalar rules); what this module holds
is the statement walk.  Each procedure body is compiled once into a
tree of Python closures — roughly 5-10x faster than naive
re-dispatching tree walking.

There is one walk.  Each statement compiles to one segment
``(is_generator, fn)``: leaf statements to plain closures, IF / DO /
DO WHILE and the receiving and collective statements to generator
closures, and a CALL to whichever form its callee needs (the node's
``blocking`` set, which the emitter reads too).  A rank therefore
yields only inside a receive or a collective, and a run of plain
closures in a block fuses into one segment.

The Fortran D directives are executable no-ops here: data placement is
the *compiler's* concern; compiled node programs contain explicit
Send/Recv/Bcast/Remap statements instead.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Generator, Optional

from ..lang import ast as A
from ..runtime.intrinsics import PURE_INTRINSICS
from ..runtime.node import (
    Frame,
    InterpError,
    Node,
    _collective_origin,
    _comm_origin,
    _count_ops,
    _Stop,
    default_init,  # noqa: F401 - the end-to-end benchmark imports it here
    fdiv,
    scalar_type,
)


class _Return(Exception):
    pass


ExprFn = Callable[[Frame], object]
#: one compiled statement: ``(is_generator, fn)`` — generator closures
#: are entered with ``yield from``, plain closures are called directly
#: (they can never suspend)
Seg = tuple[bool, Callable]


class Interpreter:
    """Compiles one rank's procedures into closures over its
    :class:`~repro.runtime.node.Node`, whose methods the closures call
    just as generated code does.  Each procedure is compiled once, on
    first execution."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.program = node.program
        self.ctx = node.ctx
        #: per-unit segment lists
        self._compiled: dict[str, list[Seg]] = {}
        #: procedure name -> ``fn(node, frame)``, the form generated code
        #: has: a generator function when the procedure may block
        self.units = {u.name: self._unit_fn(u) for u in self.program.units}

    def _unit_fn(self, unit: A.Procedure) -> Callable:
        exec_unit_y = self.exec_unit_y
        if unit.name in self.node.blocking:
            return lambda node, frame: exec_unit_y(unit, frame)

        def run(node: Node, frame: Frame) -> None:
            for _ in exec_unit_y(unit, frame):
                raise InterpError(f"{unit.name}: a procedure that cannot "
                                  f"block suspended")

        return run

    def exec_unit_y(
        self, unit: A.Procedure, frame: Frame
    ) -> Generator[None, None, None]:
        """Run procedure *unit* in *frame*: a generator that yields only
        where the rank suspends."""
        segs = self._compiled.get(unit.name)
        if segs is None:
            segs = self._compiled[unit.name] = \
                self._compile_block(unit.body, unit)
        try:
            for is_gen, fn in segs:
                if is_gen:
                    yield from fn(frame)
                else:
                    fn(frame)
        except _Return:
            pass

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
            const = self.node.param_env[unit.name].get(name)
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
        if isinstance(e, A.FuncRef):
            name = e.name
            actuals, var_actuals = self._compile_actuals(e.args, unit)
            fcall = self.node.fcall
            return lambda fr: fcall(name, fr, actuals(fr), var_actuals)
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
        """An intrinsic (name resolution made every user function
        reference an ``A.FuncRef``)."""
        name = e.name
        if name == "myproc":
            rank = self.ctx.rank
            return lambda fr: rank
        if name == "owner":
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
        fn = PURE_INTRINSICS[name]
        arg_fns = [self._compile_expr(a, unit) for a in e.args]
        if len(arg_fns) == 1:
            a0 = arg_fns[0]
            return lambda fr: fn(a0(fr))
        if len(arg_fns) == 2:
            a0, a1 = arg_fns
            return lambda fr: fn(a0(fr), a1(fr))
        return lambda fr: fn(*[f(fr) for f in arg_fns])

    # ------------------------------------------------------------------
    # statement compilation
    # ------------------------------------------------------------------

    def _compile_block(
        self, body: list[A.Stmt], unit: A.Procedure
    ) -> list[Seg]:
        """Compile *body* into segments: each run of plain closures
        fuses into one, generator closures stay one segment each."""
        segs: list[Seg] = []
        compiled = [self._compile_stmt(s, unit) for s in body]
        for is_gen, run in groupby(compiled, key=lambda seg: seg[0]):
            fns = tuple(fn for _, fn in run)
            if is_gen:
                segs += [(True, fn) for fn in fns]
            elif len(fns) == 1:
                segs.append((False, fns[0]))
            else:
                def run_plain(fr: Frame, fns=fns) -> None:
                    for fn in fns:
                        fn(fr)

                segs.append((False, run_plain))
        return segs

    def _compile_bounds(
        self, s: A.Do, unit: A.Procedure
    ) -> Callable[[Frame], tuple[int, int, int]]:
        """The DO prologue: ``lo``, ``hi``, ``step`` evaluated in that
        order, a zero step refused."""
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

    def _compile_stmt(self, s: A.Stmt, unit: A.Procedure) -> Seg:
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

                return False, assign_scalar
            name = s.target.name
            sub_fns = [self._compile_expr(x, unit) for x in s.target.subs]
            ops += len(sub_fns)

            def assign_elem(fr: Frame):
                arr = fr.arrays[name]
                idx = [int(f(fr)) for f in sub_fns]
                arr.set(idx, expr_fn(fr))
                ctx.compute(ops)

            return False, assign_elem
        if isinstance(s, A.If):
            cond_fn = self._compile_expr(s.cond, unit)
            cond_ops = _count_ops(s.cond) or 1
            then_segs = self._compile_block(s.then_body, unit)
            else_segs = self._compile_block(s.else_body, unit)
            # run-time resolution executes one guard per element: bind
            # the tick method once instead of resolving it every time
            guard_tick = ctx.guard_tick

            def run_if(fr: Frame):
                guard_tick(cond_ops)
                for is_gen, fn in then_segs if cond_fn(fr) else else_segs:
                    if is_gen:
                        yield from fn(fr)
                    else:
                        fn(fr)

            return True, run_if
        if isinstance(s, A.Do):
            var = s.var
            bounds = self._compile_bounds(s, unit)
            body_segs = self._compile_block(s.body, unit)
            # bind the tick method once per compiled loop rather than
            # resolving the attribute every iteration
            loop_tick = ctx.loop_tick

            def run_do(fr: Frame):
                lo, hi, st = bounds(fr)
                scal = fr.scalars
                i = lo
                # the trip count is fixed on entry (empty when negative)
                for _ in range((hi - lo) // st + 1):
                    scal[var] = i
                    loop_tick()
                    for is_gen, fn in body_segs:
                        if is_gen:
                            yield from fn(fr)
                        else:
                            fn(fr)
                    i += st
                scal[var] = i

            return True, run_do
        if isinstance(s, A.DoWhile):
            cond_fn = self._compile_expr(s.cond, unit)
            body_segs = self._compile_block(s.body, unit)

            def run_while(fr: Frame):
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

            return True, run_while
        if isinstance(s, A.Call):
            name = s.name
            actuals, var_actuals = self._compile_actuals(s.args, unit)
            # a callee that may block is entered as a generator
            blocks = name in self.node.blocking
            call = self.node.call_y if blocks else self.node.call
            return blocks, lambda fr: call(name, fr, actuals(fr),
                                           var_actuals)
        if isinstance(s, A.Return):
            def run_return(fr: Frame):
                raise _Return()

            return False, run_return
        if isinstance(s, A.Stop):
            def run_stop(fr: Frame):
                raise _Stop()

            return False, run_stop
        if isinstance(s, (A.Continue, A.Decomposition, A.Align,
                          A.Distribute)):
            # the directives are declarative placement, consumed by the
            # compiler: a no-op when the uncompiled source runs (the
            # sequential reference)
            return False, lambda fr: None
        if isinstance(s, A.Print):
            item_fns = [self._compile_expr(i, unit) for i in s.items]
            emit_print = self.node.emit_print

            def run_print(fr: Frame):
                emit_print([fn(fr) for fn in item_fns])

            return False, run_print
        if isinstance(s, A.SetMyProc):
            var = s.var
            rank = ctx.rank

            def run_setmyproc(fr: Frame):
                fr.scalars[var] = rank

            return False, run_setmyproc
        if isinstance(s, (A.Send, A.Recv, A.Bcast)):
            return self._compile_comm(s, unit)
        if isinstance(s, (A.SendPack, A.RecvPack)):
            return self._compile_pack(s, unit)
        if isinstance(s, A.GlobalReduce):
            return self._compile_reduce(s, unit)
        if isinstance(s, A.Remap):
            name = s.array
            specs = list(s.to_specs)
            origin = _collective_origin(s, unit)
            remap_y = self.node.remap_y
            return True, lambda fr: remap_y(fr.arrays[name], specs, origin)
        if isinstance(s, A.MarkDist):
            specs = s.to_specs
            name = s.array
            mark = self.node.mark

            def run_mark(fr: Frame):
                mark(fr.arrays[name], specs)

            return False, run_mark
        raise InterpError(f"cannot compile statement {type(s).__name__}")

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

    def _compile_comm(self, s: A.Stmt, unit: A.Procedure) -> Seg:
        """Send compiles to a plain closure (it never blocks); Recv and
        Bcast to generator closures."""
        section_fn = self._compile_section(s.subs, unit)
        name = s.array
        tag = s.tag
        origin = _comm_origin(s, unit)
        ctx = self.ctx
        entry = self.node.comm_entry
        sid = object()  # this statement's own section cache
        if isinstance(s, A.Send):
            dest_fn = self._compile_expr(s.dest, unit)

            def run_send(fr: Frame):
                arr = fr.arrays[name]
                view, slices, nbytes = entry(sid, arr, section_fn(fr))
                # np scalars are immutable values, safe to send uncopied
                payload = view.copy() if view is not None \
                    else arr.data[slices]
                ctx.send(int(dest_fn(fr)), tag, payload, nbytes,
                         origin=origin)

            return False, run_send
        if isinstance(s, A.Recv):
            src_fn = self._compile_expr(s.src, unit)
            write = self.node.write_entry

            def run_recv_y(fr: Frame):
                arr = fr.arrays[name]
                view, slices, _nbytes = entry(sid, arr, section_fn(fr))
                payload = yield from ctx.recv_y(
                    int(src_fn(fr)), tag, origin=origin
                )
                write(arr, view, slices, payload)

            return True, run_recv_y
        # broadcast
        root_fn = self._compile_expr(s.root, unit)
        consumer = self.node.consumer

        def run_bcast_y(fr: Frame):
            arr = fr.arrays[name]
            view, slices, nbytes = entry(sid, arr, section_fn(fr))
            root = int(root_fn(fr))
            if ctx.rank == root:
                # zero-copy: the collective's consume rendezvous keeps
                # every consumer's copy ahead of any mutation of the
                # source, so the root can pass a view of its own array
                yield from ctx.broadcast_y(
                    root,
                    view if view is not None else arr.data[slices],
                    nbytes, origin=origin,
                )
            else:
                yield from ctx.broadcast_y(
                    root, None, nbytes,
                    consume=consumer(arr, view, slices), origin=origin,
                )

        return True, run_bcast_y

    def _compile_pack(self, s: A.Stmt, unit: A.Procedure) -> Seg:
        """Aggregated multi-section messages (SendPack/RecvPack): all
        parts travel as one message (one startup charge).  SendPack is
        a plain closure, RecvPack a generator closure."""
        part_fns = [
            # each part has its own section cache
            (array, self._compile_section(list(subs), unit), object())
            for array, subs in s.parts
        ]
        tag = s.tag
        origin = _comm_origin(s, unit)
        ctx = self.ctx
        entry = self.node.comm_entry
        if isinstance(s, A.SendPack):
            dest_fn = self._compile_expr(s.dest, unit)

            def run_sendpack(fr: Frame):
                payloads = []
                nbytes = 0
                for array, sec_fn, sid in part_fns:
                    arr = fr.arrays[array]
                    view, slices, nb = entry(sid, arr, sec_fn(fr))
                    payloads.append(
                        view.copy() if view is not None
                        else arr.data[slices]
                    )
                    nbytes += nb
                ctx.send(int(dest_fn(fr)), tag, payloads, nbytes,
                         origin=origin)

            return False, run_sendpack
        src_fn = self._compile_expr(s.src, unit)
        write = self.node.write_entry

        def run_recvpack_y(fr: Frame):
            payloads = yield from ctx.recv_y(
                int(src_fn(fr)), tag, origin=origin
            )
            for (array, sec_fn, sid), data in zip(part_fns, payloads):
                arr = fr.arrays[array]
                view, slices, _nb = entry(sid, arr, sec_fn(fr))
                write(arr, view, slices, data)

        return True, run_recvpack_y

    def _compile_reduce(self, s: A.GlobalReduce, unit: A.Procedure) -> Seg:
        var, op, aux = s.var, s.op, s.aux
        origin = _collective_origin(s, unit)

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

        return True, run_reduce_y


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
