"""The node runtime: the library every node program runs on (§6).

The paper's node program calls "a collection of library routines" for
remaps, sections and calls, and declares its local blocks itself
(Fig 14).  This module is that library for the simulated machine, one
:class:`Node` per rank, shared by both engines:

* generated code (:mod:`repro.codegen`) receives the rank's node as
  ``rt`` and calls :meth:`Node.call`, :meth:`Node.comm_entry`,
  :meth:`Node.remap_y` and the rest by name;
* the closure compiler (:class:`~repro.interp.interpreter.Interpreter`)
  calls the same methods from its closures.  A run picks its engine
  once: a node runs every procedure's generated function, or (codegen
  off) builds its interpreter and runs every procedure on that.

What lives here is what the two engines must agree on: frames, the
COMMON store, array allocation and initial images, the call convention,
the per-statement communication section caches, remap and mark, prints,
and the scalar rules (``/``, implicit typing, print format, operation
counts, message provenance, and which procedures may block).

Semantics notes
---------------
* Node programs execute in *global index space*: every node allocates
  the full array (:class:`FArray`); only its owned partition, plus the
  sections receives and broadcasts deliver, holds valid data.
* Fortran implicit typing: undeclared scalars starting with ``i``-``n``
  are INTEGER, others REAL.
* Array formals bind by reference (the caller's :class:`FArray`);
  scalar formals copy in, and copy out when the actual is a variable.
  Functions return through assignment to the function name.
* All nodes initialize arrays with the same deterministic pattern, so a
  compiled program's owned regions can be compared element for element
  against a sequential run of the original program.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence, Union

import numpy as np

from ..dist import Distribution
from ..lang import ast as A
from ..lang.parser import CompileError
from ..lang.printer import expr_str
from ..machine.costmodel import CostModel, IPSC860
from ..machine.faults import FaultPlan
from ..machine.machine import Machine, ProcContext, SimulationError
from ..settings import Settings
from .remap import mark_array, remap_array_y


class InterpError(Exception):
    """Semantic error during execution."""


class _Stop(Exception):
    pass


# ----------------------------------------------------------------------
# arrays and frames
# ----------------------------------------------------------------------

SubsValue = Union[int, tuple]  # int index or (lo, hi, step) triple


class FArray:
    """A Fortran array on one node: data, bounds and the current
    distribution (which remapping updates and ``owner()`` queries at
    run time).  Ownership never appears here — the compiled program's
    reduced loop bounds and guards enforce it."""

    __slots__ = ("name", "bounds", "data", "dist", "dtype")

    def __init__(
        self,
        name: str,
        bounds: Sequence[tuple[int, int]],
        dtype: str = "real",
        dist: Optional[Distribution] = None,
        fill: float = 0.0,
    ) -> None:
        self.name = name
        self.bounds = [(int(lo), int(hi)) for lo, hi in bounds]
        shape = tuple(hi - lo + 1 for lo, hi in self.bounds)
        np_dtype = np.float64 if dtype == "real" else np.int64
        self.dtype = dtype
        self.data = np.full(shape, fill, dtype=np_dtype)
        self.dist = dist

    @property
    def rank(self) -> int:
        return len(self.bounds)

    @property
    def element_bytes(self) -> int:
        return int(self.data.itemsize)

    # -- element access ------------------------------------------------------

    def _offset(self, axis: int, g: int) -> int:
        lo, hi = self.bounds[axis]
        if not (lo <= g <= hi):
            raise IndexError(
                f"{self.name}: index {g} outside [{lo}:{hi}] in dim {axis + 1}"
            )
        return g - lo

    def get(self, indices: Sequence[int]):
        pos = tuple(self._offset(a, g) for a, g in enumerate(indices))
        return self.data[pos]

    def set(self, indices: Sequence[int], value) -> None:
        pos = tuple(self._offset(a, g) for a, g in enumerate(indices))
        self.data[pos] = value

    # -- section access -------------------------------------------------------

    def _slices(self, subs: Sequence[SubsValue]) -> tuple:
        out = []
        for axis, s in enumerate(subs):
            if isinstance(s, tuple):
                lo, hi, step = s
                if hi < lo:
                    # empty section (e.g. the boundary strip of a
                    # processor whose block is empty): no bounds check —
                    # the endpoints may lie outside the array
                    out.append(slice(0, 0, max(int(step), 1)))
                    continue
                o = self._offset(axis, lo)
                e = self._offset(axis, hi)
                out.append(slice(o, e + 1, step))
            else:
                out.append(self._offset(axis, int(s)))
        return tuple(out)

    @staticmethod
    def section_count(subs: Sequence[SubsValue]) -> int:
        n = 1
        for s in subs:
            if isinstance(s, tuple):
                lo, hi, step = s
                n *= 0 if hi < lo else (hi - lo) // step + 1
        return n

    def section_bytes(self, subs: Sequence[SubsValue]) -> int:
        return self.section_count(subs) * self.element_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        b = ",".join(f"{lo}:{hi}" for lo, hi in self.bounds)
        d = f" dist={self.dist}" if self.dist else ""
        return f"<FArray {self.name}({b}){d}>"


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


# ----------------------------------------------------------------------
# scalar rules both engines lower
# ----------------------------------------------------------------------


def _count_ops(e: A.Expr) -> int:
    n = 0
    for sub in A.walk_exprs(e):
        if isinstance(sub, (A.BinOp, A.UnOp, A.CallExpr, A.FuncRef)):
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


def _comm_origin(s: A.Stmt, unit: A.Procedure) -> str:
    """Trace provenance of a communication statement, computed once
    when the statement is compiled: the codegen comment (already
    ``proc:expr`` for compiler-placed messages), qualified with the
    procedure name when it is a bare annotation like ``rtr``."""
    c = getattr(s, "comment", "") or ""
    if not c:
        return f"{unit.name}:?"
    if ":" in c:
        return c
    return f"{unit.name}:{c}"


def _collective_origin(s: A.GlobalReduce | A.Remap,
                       unit: A.Procedure) -> str:
    """Trace provenance of a reduction or a remap: its codegen comment,
    else ``proc:<op> <var>`` / ``proc:remap <array>``."""
    c = getattr(s, "comment", "")
    if c:
        return c
    if isinstance(s, A.Remap):
        return f"{unit.name}:remap {s.array}"
    return f"{unit.name}:{s.op} {s.var}"


#: statements that can suspend the executing rank (the matching Send
#: side is asynchronous and never blocks)
_BLOCKING_STMTS = (A.Recv, A.RecvPack, A.Bcast, A.GlobalReduce, A.Remap)


class UnitFacts(NamedTuple):
    """What one walk over a procedure's body establishes about it,
    independent of the program around it."""

    #: contains a blocking statement itself
    blocks: bool
    #: targets of its CALL statements
    calls: frozenset[str]
    #: every user function referenced in expression position (in
    #: first-occurrence order) -> the scalar variables passed to it,
    #: which it may write
    func_refs: dict[str, frozenset[str]]
    #: scalars its statements write: assignment targets, DO variables,
    #: reduction results and the variables a CALL passes by reference
    written: frozenset[str]


def unit_facts(unit: A.Procedure) -> UnitFacts:
    """The single statement / expression walk behind :class:`UnitFacts`."""
    blocks = False
    calls: set[str] = set()
    func_refs: dict[str, set[str]] = {}
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
                if isinstance(sub, A.FuncRef):
                    func_refs.setdefault(sub.name, set()).update(
                        a.name for a in sub.args if isinstance(a, A.Var)
                    )
    return UnitFacts(
        blocks, frozenset(calls),
        {name: frozenset(args) for name, args in func_refs.items()},
        frozenset(written),
    )


def find_blocking_units(
    program: A.Program, facts: Optional[dict[str, UnitFacts]] = None
) -> set[str]:
    """Procedures that may suspend: those containing a blocking
    statement, transitively closed over CALL edges.  Both engines place
    their yields at exactly these procedures; the code generator passes
    the per-unit *facts* it has already collected.  A function
    reference to one of them is a :class:`CompileError` (the compiler
    checks its output with this too): a rank cannot suspend inside an
    expression."""
    if facts is None:
        facts = {u.name: unit_facts(u) for u in program.units}
    blocking = {name for name, f in facts.items() if f.blocks}
    changed = True
    while changed:
        changed = False
        for name, f in facts.items():
            if name not in blocking and f.calls & blocking:
                blocking.add(name)
                changed = True
    for name, f in facts.items():
        for callee in f.func_refs:
            if callee in blocking:
                raise CompileError(
                    f"{name}: function {callee!r} communicates inside an "
                    f"expression; restructure as a CALL statement")
    return blocking


# ----------------------------------------------------------------------
# the node
# ----------------------------------------------------------------------


class Node:
    """One rank's runtime: storage, calls, sections, remaps and prints
    for the program it runs.  Generated code receives it as ``rt``.

    *units* maps every procedure name to its generated function; None
    (codegen off) makes the node build its interpreter, whose
    ``units`` map each procedure to its closures in the same form —
    ``fn(node, frame)``, a generator function when the procedure may
    block."""

    __slots__ = (
        "program", "ctx", "tracer", "initial_dists", "init_fn",
        "blocking", "units", "param_env", "prints", "comm_cache_hits",
        "comm_cache_misses", "_images", "_common_store", "_caches",
    )

    def __init__(
        self,
        program: A.Program,
        ctx: ProcContext,
        initial_dists: dict[tuple[str, str], Distribution],
        init_fn: Callable[[str, tuple[int, ...]], float],
        blocking: set[str],
        images: dict[tuple, np.ndarray],
        units: Optional[dict[str, Callable]],
    ) -> None:
        self.program = program
        self.ctx = ctx
        self.tracer = ctx.tracer
        self.initial_dists = initial_dists
        self.init_fn = init_fn
        #: procedures that may suspend (``run_spmd`` computes the set
        #: once per program and hands it to every rank)
        self.blocking = blocking
        self.param_env = {u.name: self._eval_params(u)
                          for u in program.units}
        self.prints: list[str] = []
        self.comm_cache_hits = 0
        self.comm_cache_misses = 0
        #: initial array images shared by the ranks of one run
        #: (``run_spmd`` hands every rank the same dict; see ``_fill``)
        self._images = images
        #: per-communication-statement section caches, keyed by a
        #: static id (``'<procedure>:<k>'`` in generated code, one
        #: object per compiled closure in the interpreter)
        self._caches: dict[object, dict] = {}
        # COMMON arrays: one storage per node, visible in every frame
        self._common_store: dict[str, FArray] = {}
        self._build_commons()
        if units is None:
            from ..interp.interpreter import Interpreter

            units = Interpreter(self).units
        self.units = units

    def run_y(self):
        """Execute the main program as a rank coroutine.

        Yields exactly at the points where the rank genuinely suspends
        (a RECV with no matching message, a non-last collective
        arrival); the :class:`~repro.machine.event.EventScheduler`
        resumes the generator when the wait is satisfied, and on the
        ``threads`` oracle the blocking ops wait inline so it never
        yields."""
        main = self.program.main
        frame = self._make_frame(main, [])
        try:
            fn = self.units[main.name]
            if main.name in self.blocking:
                yield from fn(self, frame)
            else:
                # a main that never blocks runs straight through
                fn(self, frame)
        except _Stop:
            pass
        return frame

    # -- frames and declarations -------------------------------------------

    @staticmethod
    def _eval_params(unit: A.Procedure) -> dict[str, float | int]:
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
        env = dict(self.param_env[main.name])
        for name, d in decls.items():
            arr = self._allocate(main, name, d, env)
            self._fill(arr)
            self._common_store[name] = arr

    def _allocate(self, unit: A.Procedure, name: str, d, env) -> FArray:
        bounds = []
        for lo_e, hi_e in d.dims:
            bounds.append((self._const_bound(lo_e, env, unit, name),
                           self._const_bound(hi_e, env, unit, name)))
        return FArray(name, bounds, d.type,
                      self.initial_dists.get((unit.name, name)))

    def _make_frame(self, unit: A.Procedure, args: list[object]) -> Frame:
        frame = Frame(unit.name)
        frame.scalars.update(self.param_env[unit.name])
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
            arr = self._allocate(unit, d.name, d, env)
            if unit.kind == "program":
                self._fill(arr)
            frame.arrays[d.name] = arr
        return frame

    @staticmethod
    def _const_bound(e, env, unit, name) -> int:
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

    # -- calls ---------------------------------------------------------------

    def enter_call(
        self, name: str, args: list[object]
    ) -> tuple[A.Procedure, Frame]:
        """The call convention: every call is ``enter_call`` -> run the
        body -> :meth:`leave_call`.  Binds the evaluated actuals *args*
        (the :class:`FArray` itself for an array) to a fresh frame of
        procedure *name* and charges the call overhead."""
        unit = self.program.unit(name)
        callee_frame = self._make_frame(unit, args)
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

    def call(self, name: str, fr: Frame, args: list,
             var_actuals: tuple) -> Frame:
        """CALL statement / function reference for a callee that cannot
        block."""
        unit, callee = self.enter_call(name, args)
        self.units[name](self, callee)
        self.leave_call(unit, var_actuals, fr, callee)
        return callee

    def call_y(self, name: str, fr: Frame, args: list, var_actuals: tuple):
        """Generator form of :meth:`call` for callees that may block."""
        unit, callee = self.enter_call(name, args)
        yield from self.units[name](self, callee)
        self.leave_call(unit, var_actuals, fr, callee)
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

    # -- communication sections -------------------------------------------

    def comm_entry(
        self, sid: object, arr: FArray, raw: list
    ) -> tuple[Optional[np.ndarray], tuple, int]:
        """Memoized resolution of one communication section.

        Maps the raw section values of one execution of communication
        statement *sid* to ``(view, slices, nbytes)``: the numpy view of
        the section (None for a single element), the index tuple, and
        the payload size.  Steady-state iterations re-derive nothing —
        a dict probe replaces whole-dim resolution, bounds checks, and
        index arithmetic.  Caching the *view* is safe because
        ``FArray.data`` is allocated exactly once and the section
        depends only on the immutable bounds and the key.
        """
        cache = self._caches.get(sid)
        if cache is None:
            cache = self._caches[sid] = {}
        key = (arr, tuple(raw))
        entry = cache.get(key)
        if self.tracer is not None:
            self.tracer.emit(self.ctx.rank, (
                "interp.cache", self.ctx.clock_estimate(), 0.0,
                arr.name, entry is not None,
            ))
        if entry is not None:
            self.comm_cache_hits += 1
            return entry
        self.comm_cache_misses += 1
        subs = []
        for axis, s in enumerate(raw):  # whole-dimension ends resolved
            if isinstance(s, tuple):
                lo, hi, st = s
                blo, bhi = arr.bounds[axis]
                s = (blo if lo is None else lo, bhi if hi is None else hi, st)
            subs.append(s)
        slices = arr._slices(subs)
        view = arr.data[slices]
        if not isinstance(view, np.ndarray):
            view = None  # single element: index directly, not via a view
        entry = (view, slices, arr.section_bytes(subs))
        cache[key] = entry
        return entry

    @staticmethod
    def write_entry(arr: FArray, view: Optional[np.ndarray],
                    slices: tuple, payload) -> None:
        """Write a received *payload* into a section: through its
        *view*, reshaped to it, or element *slices* when *view* is
        None."""
        if view is None:
            arr.data[slices] = payload
            return
        payload = np.asarray(payload)
        if payload.shape != view.shape:
            payload = payload.reshape(view.shape)
        view[...] = payload

    def consumer(self, arr: FArray, view: Optional[np.ndarray],
                 slices: tuple):
        """Broadcast consume callback writing through a cached entry."""
        write = self.write_entry
        return lambda data: write(arr, view, slices, data)

    # -- remapping -----------------------------------------------------------

    def remap_y(self, arr: FArray, specs, origin: str):
        new = Distribution.from_specs(specs, arr.bounds, self.ctx.nprocs)
        yield from remap_array_y(self.ctx, arr, new, origin=origin)

    def mark(self, arr: FArray, specs) -> None:
        mark_array(arr, Distribution.from_specs(specs, arr.bounds,
                                                self.ctx.nprocs))

    # -- observability -------------------------------------------------------

    def emit_print(self, values) -> None:
        self.prints.append(format_print(self.ctx.rank, values))


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
    :class:`~repro.codegen.vectorize.LoopPlan` accepts; the interpreter
    always runs scalar), chosen once for the whole run;
    *metrics* a :class:`~repro.obs.MetricsRegistry` or ``True`` for the
    process-wide default registry.
    """
    # deferred import: repro.codegen imports this module
    from ..codegen import get_generated

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
        # every procedure is loaded here, before the machine starts: a
        # compile only resolved the texts
        gen, gh, gm = get_generated(program, nprocs, bool(vectorize))
        machine.stats.record_codegen(gh, gm)

    initial_dists = initial_dists or {}
    # once per run, not once per rank: a generated program carries the
    # set its emission was decided by
    blocking = gen.blocking if gen is not None \
        else find_blocking_units(program)
    # per run, not per process: an init_fn's purity cannot be keyed
    # across runs (two `threads` ranks computing one image is benign)
    images: dict[tuple, np.ndarray] = {}

    units = gen.module.units if gen is not None else None

    # one SPMD node program: the machine drives each rank as a
    # coroutine, suspending exactly at blocking communication
    def rank_program(ctx: ProcContext):
        node = Node(program, ctx, initial_dists, init_fn, blocking,
                    images, units)
        frame = yield from node.run_y()
        ctx.stats.record_comm_cache(
            node.comm_cache_hits, node.comm_cache_misses
        )
        prints.extend(node.prints)
        return frame

    frames = machine.run(rank_program)
    # the result carries a trace only when one was asked for, not the
    # empty ring a metrics fold rides on
    tracer = machine.tracer
    if tracer is not None and tracer is not trace \
            and tracer.capacity is not None:
        tracer = None
    if tracer is not None and trace is None \
            and isinstance(settings.trace, str):
        from ..obs import write_chrome_trace

        write_chrome_trace(tracer, settings.trace)
    return SPMDResult(machine.stats, frames, prints, trace=tracer)
