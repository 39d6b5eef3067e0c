"""Run-time support for generated node programs.

A generated module (see :mod:`repro.codegen.emit`) is straight-line
Python: it reads and writes frame scalars and numpy buffers directly
and charges the virtual clock inline.  Everything that must stay
*shared* with the interpreter — frame construction, COMMON storage,
the communication-schedule cache, print formatting, remap execution,
call/return conventions — goes through the :class:`NodeRt` shim so the
two execution paths cannot drift apart.  One ``NodeRt`` wraps one
:class:`~repro.interp.interpreter.Interpreter` instance per rank; any
procedure the generator demoted falls back to that interpreter's
compiled closures mid-run, transparently.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..dist import Distribution
from ..interp.arrays import FArray
from ..interp.interpreter import Frame, Interpreter, InterpError, _Stop
from ..runtime.remap import mark_array, remap_array_y


def fdiv(a, b):
    """Scalar mirror of the interpreter's ``/``: Fortran truncating
    division when both operands are integral, IEEE division otherwise."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        q = abs(a) // abs(b)
        return int(q if (a >= 0) == (b >= 0) else -q)
    return a / b


def owner_of(arr: FArray, idx):
    """``owner()`` intrinsic against an array's current distribution."""
    dist = arr.dist
    if dist is None or dist.is_replicated:
        return 0
    return dist.owner(idx)


def ax_slice(arr: FArray, pos: int, first: int, last: int, st: int):
    """Loop-axis block section -> slice, bounds-checked at the block
    endpoints exactly like :func:`repro.interp.vectorize._block_slices`."""
    o_first = arr._offset(pos, first)
    o_last = arr._offset(pos, last)
    stop = o_last + (1 if st > 0 else -1)
    return slice(o_first, stop if stop >= 0 else None, st)


class NodeRt:
    """Per-rank runtime harness driving one generated module."""

    __slots__ = ("interp", "mod", "ctx", "tracer", "_caches")

    def __init__(self, interp: Interpreter, mod) -> None:
        self.interp = interp
        self.mod = mod
        self.ctx = interp.ctx
        self.tracer = interp.tracer
        #: per-comm-statement section caches, keyed by the static id the
        #: emitter assigned (mirrors the per-closure caches of the
        #: interpreter's compiled comm statements)
        self._caches: dict[int, dict] = {}

    # -- communication sections -------------------------------------------

    def comm_entry(self, sid: int, arr: FArray, raw: list):
        """Resolve one communication section through the interpreter's
        memoized path (identical hit/miss counters and trace events)."""
        cache = self._caches.get(sid)
        if cache is None:
            cache = self._caches[sid] = {}
        return self.interp._comm_entry(cache, arr, raw)

    write_entry = staticmethod(Interpreter._write_entry)

    def consumer(self, arr: FArray, view: Optional[np.ndarray],
                 slices: tuple):
        """Broadcast consume callback writing through a cached entry."""
        write = Interpreter._write_entry
        return lambda data: write(arr, view, slices, data)

    # -- remapping ---------------------------------------------------------

    def remap_y(self, arr: FArray, specs, origin: str):
        new = Distribution.from_specs(list(specs), arr.bounds,
                                      self.ctx.nprocs)
        yield from remap_array_y(self.ctx, arr, new, origin=origin)

    def mark(self, arr: FArray, specs) -> None:
        mark_array(arr, Distribution.from_specs(list(specs), arr.bounds,
                                                self.ctx.nprocs))

    # -- observability -----------------------------------------------------

    def emit_print(self, values) -> None:
        parts = [
            f"{v:.6g}" if isinstance(v, float) else str(v) for v in values
        ]
        self.interp.prints.append(f"[{self.ctx.rank}] " + " ".join(parts))

    def trace_vec(self, t0: float, unit: str, var: str, n: int,
                  ops: int) -> None:
        """The vectorized-block trace event, identical in kind and
        fields to the interpreter's (tools must not care which path
        executed the block)."""
        ctx = self.ctx
        self.tracer.rank_event(
            ctx.rank, "interp.vec", t0, dur=ctx.clock_estimate() - t0,
            unit=unit, var=var, n=n, ops=ops,
        )

    # -- calls -------------------------------------------------------------

    def call(self, name: str, fr: Frame, args: list,
             var_actuals: tuple) -> Frame:
        """CALL statement / function-call convention: identical frame
        binding, call-overhead charge, and scalar copy-out to
        :meth:`Interpreter._call_procedure`, for callees that cannot
        block.  Dispatches to the callee's generated body when one
        exists, else to the interpreter."""
        interp = self.interp
        unit = interp.program.unit(name)
        callee = interp._make_frame(unit, args, fr)
        self.ctx.compute(3 + len(args))  # call overhead
        fn = self.mod.units.get(name)
        if fn is not None:
            fn(self, callee)
        else:
            interp._exec_unit(unit, callee)
        for formal, actual in zip(unit.formals, var_actuals):
            if actual is not None and actual not in fr.arrays:
                if formal in callee.scalars:
                    fr.scalars[actual] = callee.scalars[formal]
        return callee

    def call_y(self, name: str, fr: Frame, args: list, var_actuals: tuple):
        """Generator twin of :meth:`call` for callees that may block
        (their generated body is a generator)."""
        interp = self.interp
        unit = interp.program.unit(name)
        callee = interp._make_frame(unit, args, fr)
        self.ctx.compute(3 + len(args))  # call overhead
        fn_y = self.mod.units.get(name)
        if fn_y is not None:
            yield from fn_y(self, callee)
        else:
            yield from interp._exec_unit_y(unit, callee)
        for formal, actual in zip(unit.formals, var_actuals):
            if actual is not None and actual not in fr.arrays:
                if formal in callee.scalars:
                    fr.scalars[actual] = callee.scalars[formal]
        return callee

    def fcall(self, name: str, fr: Frame, args: list, var_actuals: tuple):
        """User-function reference in expression position."""
        callee = self.call(name, fr, args, var_actuals)
        try:
            return callee.scalars[name]
        except KeyError:
            raise InterpError(
                f"function {name} returned no value"
            ) from None

    # -- entry points ------------------------------------------------------

    def run_y(self):
        """Execute the main program as a rank coroutine: yields exactly
        where :meth:`Interpreter.run_events` yields."""
        interp = self.interp
        main = interp.program.main
        frame = interp._make_frame(main, [], None)
        try:
            fn = self.mod.units.get(main.name)
            if fn is None:
                yield from interp._exec_unit_y(main, frame)
            elif main.name in self.mod.blocking:
                yield from fn(self, frame)
            else:
                # a main that never blocks runs straight through
                fn(self, frame)
        except _Stop:
            pass
        return frame
