"""Run-time support for generated node programs.

A generated module (see :mod:`repro.codegen.emit`) is straight-line
Python: it reads and writes frame scalars and numpy buffers directly
and charges the virtual clock inline.  Everything that must stay
*shared* with the interpreter — frame construction, COMMON storage,
the communication-schedule cache, print formatting, remap execution,
call/return conventions and ``/`` — is defined once under
:mod:`repro.interp` and reached through the :class:`NodeRt` shim (or
imported by name, by the generated modules' prelude), so the two
execution paths cannot drift apart.  One ``NodeRt`` wraps one
:class:`~repro.interp.interpreter.Interpreter` instance per rank; any
procedure the generator demoted falls back to that interpreter's
compiled closures mid-run, transparently.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..dist import Distribution
from ..interp.arrays import FArray
from ..interp.interpreter import (
    Frame, Interpreter, InterpError, _Stop, format_print,
)
from ..runtime.remap import mark_array, remap_array_y
from .vectorize import trace_block

__all__ = ["NodeRt"]


class NodeRt:
    """Per-rank runtime harness driving one generated module."""

    __slots__ = ("interp", "mod", "ctx", "tracer", "_caches")

    def __init__(self, interp: Interpreter, mod) -> None:
        self.interp = interp
        self.mod = mod
        self.ctx = interp.ctx
        self.tracer = interp.tracer
        #: per-comm-statement section caches, keyed by the static id the
        #: emitter assigned (``'<procedure>:<k>'``; the interpreter's
        #: compiled comm statements hold one such cache per closure)
        self._caches: dict[str, dict] = {}

    # -- communication sections -------------------------------------------

    def comm_entry(self, sid: str, arr: FArray, raw: list):
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
        self.interp.prints.append(format_print(self.ctx.rank, values))

    def trace_vec(self, t0: float, unit: str, var: str, n: int,
                  ops: int) -> None:
        trace_block(self.tracer, self.ctx, t0, unit, var, n, ops)

    # -- calls -------------------------------------------------------------

    def call(self, name: str, fr: Frame, args: list,
             var_actuals: tuple) -> Frame:
        """CALL statement / function reference under the interpreter's
        call convention (:meth:`Interpreter.enter_call` /
        :meth:`~Interpreter.leave_call`), for callees that cannot
        block.  Dispatches to the callee's generated body when one
        exists, else to the interpreter."""
        interp = self.interp
        unit, callee = interp.enter_call(name, args, fr)
        fn = self.mod.units.get(name)
        if fn is not None:
            fn(self, callee)
        else:
            interp._exec_unit(unit, callee)
        interp.leave_call(unit, var_actuals, fr, callee)
        return callee

    def call_y(self, name: str, fr: Frame, args: list, var_actuals: tuple):
        """Generator form of :meth:`call` for callees that may block
        (their generated body is a generator)."""
        interp = self.interp
        unit, callee = interp.enter_call(name, args, fr)
        fn_y = self.mod.units.get(name)
        if fn_y is not None:
            yield from fn_y(self, callee)
        else:
            yield from interp._exec_unit_y(unit, callee)
        interp.leave_call(unit, var_actuals, fr, callee)
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
