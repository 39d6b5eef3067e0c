"""Optimizing dynamic data decomposition (§6, Figures 15-17).

Executable ``DISTRIBUTE``/``ALIGN`` statements outside the main program's
static prologue remap arrays at run time.  Naive placement of calls to
the remap library is disastrous (Figure 16a: four remaps per loop
iteration); this module implements the paper's optimization ladder:

* **Delayed instantiation** — a callee whose redistribution happens
  before it uses the inherited decomposition does not remap itself; it
  exports ``DecompBefore`` / ``DecompAfter`` and the *caller* places the
  remaps around the call (the key enabler, §6).
* **Live decompositions** (Figure 17) — remaps whose decomposition
  reaches no use are deleted; identical remaps with overlapping live
  ranges coalesce (16a → 16b).
* **Loop-invariant decompositions** — a remap not used within its loop
  moves after the loop; the then-unique remap reaching every use in the
  loop hoists before it (16b → 16c).
* **Array kills** — a remap whose array is dead (every element
  overwritten before any read) becomes an in-place marking with zero
  data motion (16c → 16d).

Liveness/reachability run on a linearized event model of the structured
body (loop bodies walked with wrap-around for the back edge; branch
events merged conservatively), which is exact for the straight-line
loop nests the paper targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..callgraph.acg import CallSite
from ..dist import Distribution
from ..lang import ast as A
from .model import DecompSets, ProcExports
from .options import DynOpt, Options, CompileReport
from .partition import ArrayInfo
from .reaching import build_directive_table, _array_bounds


@dataclass(eq=False)
class RemapOp:
    """A candidate remap operation awaiting placement/optimization.

    ``eq=False``: operations are compared and indexed by identity — two
    remaps of the same array to the same distribution at structurally
    identical anchors are still distinct events."""

    array: str
    dist: Optional[Distribution]  # None = restore caller's distribution
    #: "before" | "after" (relative to anchor) | "inplace" (replaces it)
    where: str
    anchor: A.Stmt
    #: loop nesting chain of the anchor (list of A.Do), outermost first
    loops: list[A.Do] = field(default_factory=list)
    alive: bool = True
    mark_only: bool = False   # array-kill: remap in place
    hoisted: Optional[str] = None  # "pre" | "post" of loops[-1]

    def resolved(self, fallback: Optional[Distribution]) -> Optional[Distribution]:
        return self.dist if self.dist is not None else fallback


@dataclass
class DynPlan:
    replace: dict[int, list[A.Stmt]] = field(default_factory=dict)
    insert_before: dict[int, list[A.Stmt]] = field(default_factory=dict)
    insert_after: dict[int, list[A.Stmt]] = field(default_factory=dict)
    sets: DecompSets = field(default_factory=DecompSets)


# -- event model -------------------------------------------------------------


@dataclass(eq=False)
class _Use:
    array: str
    stmt: A.Stmt


@dataclass(eq=False)
class _FullKill:
    array: str
    stmt: A.Stmt


@dataclass(eq=False)
class _LoopStart:
    loop: A.Do


@dataclass(eq=False)
class _LoopEnd:
    loop: A.Do


Event = Union[RemapOp, _Use, _FullKill, _LoopStart, _LoopEnd]


class DynamicDecompPlanner:
    """Per-procedure dynamic-decomposition planning (runs during the
    reverse-topological code-generation sweep)."""

    def __init__(
        self,
        proc: A.Procedure,
        arrays: dict[str, ArrayInfo],
        opts: Options,
        callees: tuple[tuple[CallSite, Optional[ProcExports]], ...],
        env: dict,
        is_main: bool,
        report: CompileReport,
        reaching_pr=None,
    ) -> None:
        self.proc = proc
        self.arrays = arrays
        self.reaching_pr = reaching_pr
        self.opts = opts
        self.callees = callees
        self.env = env
        self.is_main = is_main
        self.report = report
        self.site_of = {id(site.stmt): (site, exp) for site, exp in callees}
        self.table = build_directive_table(proc)
        self.plan = DynPlan()

    # ------------------------------------------------------------------

    def analyze(self) -> DynPlan:
        dynamic = find_dynamic_distributes(self.proc, self.is_main)
        has_callee_sets = any(
            self._callee_sets(exp) for _site, exp in self.callees)
        self._export_kill_analysis()
        self._collect_use(dynamic)
        if not dynamic and not has_callee_sets:
            return self.plan
        if not self.is_main and dynamic:
            self._plan_callee(dynamic)
            if not has_callee_sets:
                return self.plan
        ops, events = self._collect_events(dynamic)
        if self.opts.dynopt >= DynOpt.LIVE:
            self._live_pass(ops, events)
            self._coalesce_pass(ops, events)
        if self.opts.dynopt >= DynOpt.HOIST:
            self._hoist_pass(ops, events)
        if self.opts.dynopt >= DynOpt.KILLS:
            self._kill_pass(ops, events)
        self._emit(ops, dynamic)
        return self.plan

    # -- callee side ------------------------------------------------------

    def _plan_callee(self, dynamic: list[A.Distribute]) -> None:
        """Delayed instantiation in a callee (§6.1): redistribution that
        precedes any use of the inherited decomposition is exported as
        DecompBefore/DecompAfter; the Distribute statement vanishes."""
        sets = self.plan.sets
        used_before: set[str] = set()
        for s in self.proc.body:
            if isinstance(s, A.Distribute) and any(s is d for d in dynamic):
                targets = self._targets(s)
                interface = set(self.proc.formals) | set(self.proc.commons)
                for arr, dist in targets.items():
                    if arr not in interface or arr in used_before \
                            or arr in sets.before:
                        # cannot delay: remap in place
                        self.plan.replace.setdefault(id(s), []).append(
                            A.Remap(arr, list(dist.specs),
                                    comment=f"{self.proc.name} local remap")
                        )
                        sets.exit[arr] = dist
                        self.report.remaps_emitted += 1
                    else:
                        sets.before[arr] = dist
                        sets.after[arr] = None  # restore inherited
                        sets.exit[arr] = dist
                    sets.kill.add(arr)
                self.plan.replace.setdefault(id(s), [])
            else:
                for arr in _stmt_array_uses(s, set(self.arrays)):
                    if arr not in sets.kill:
                        used_before.add(arr)
                        if arr in self.proc.formals or \
                                arr in self.proc.commons:
                            sets.use.add(arr)
        # arrays used but never killed use the inherited decomposition
        iface = set(self.proc.formals) | set(self.proc.commons)
        for s in A.walk_stmts(self.proc.body):
            for arr in _stmt_array_uses(s, set(self.arrays)):
                if arr in iface and arr not in sets.kill:
                    sets.use.add(arr)

    def _collect_use(self, dynamic: list[A.Distribute]) -> None:
        """DecompUse(P): formal arrays that may use a decomposition
        inherited from the caller — referenced anywhere unless a local
        dynamic redistribution dominates every reference."""
        sets = self.plan.sets
        killed_first: set[str] = set()
        for s in self.proc.body:
            if isinstance(s, A.Distribute) and any(s is d for d in dynamic):
                for arr in self._targets(s):
                    if arr not in sets.use:
                        killed_first.add(arr)
            else:
                for arr in _stmt_array_uses(s, set(self.arrays)):
                    if (arr in self.proc.formals or arr in self.proc.commons) \
                            and arr not in killed_first:
                        sets.use.add(arr)
        # references inside nested structure count as uses too
        for s in A.walk_stmts(self.proc.body):
            for arr in _stmt_array_uses(s, set(self.arrays)):
                if (arr in self.proc.formals or arr in self.proc.commons) \
                        and arr not in killed_first:
                    sets.use.add(arr)

    def _export_kill_analysis(self) -> None:
        """Array-kill analysis (§6.3): formal arrays whose first access
        overwrites every element before any read."""
        sets = self.plan.sets
        for arr in list(self.proc.formals) + list(self.proc.commons):
            info = self.arrays.get(arr)
            if info is None:
                continue
            decl = self.proc.decl(arr)
            if decl is None or not decl.is_array:
                continue
            if _first_access_is_full_kill(self.proc, arr, self.env):
                sets.full_kill.add(arr)

    # -- event collection ----------------------------------------------------

    @staticmethod
    def _callee_sets(exp: Optional[ProcExports]) -> Optional[DecompSets]:
        if exp is None:
            return None
        d = exp.decomp
        if d.before or d.after or d.exit:
            return d
        return None

    def _targets(self, s: A.Distribute) -> dict[str, Distribution]:
        out: dict[str, Distribution] = {}
        try:
            changed = self.table.resolve_distribute(s)
        except ValueError:
            return out
        for arr, value in changed.items():
            bounds = _array_bounds(self.proc, arr, self.env)
            if bounds is not None:
                out[arr] = Distribution.from_specs(
                    value.specs, bounds, self.opts.nprocs
                )
        return out

    def _collect_events(
        self, dynamic: list[A.Distribute]
    ) -> tuple[list[RemapOp], list[Event]]:
        ops: list[RemapOp] = []
        events: list[Event] = []
        arrays = set(self.arrays)

        def walk(body: list[A.Stmt], loops: list[A.Do]) -> None:
            for s in body:
                if isinstance(s, A.Distribute):
                    if self.is_main and any(s is d for d in dynamic):
                        for arr, dist in self._targets(s).items():
                            op = RemapOp(arr, dist, "inplace", s, list(loops))
                            ops.append(op)
                            events.append(op)
                        self.plan.replace.setdefault(id(s), [])
                    continue
                if isinstance(s, A.Call) and id(s) in self.site_of:
                    site, exp = self.site_of[id(s)]
                    from .communication import array_binding

                    amap = array_binding(site)
                    sets = self._callee_sets(exp)
                    if sets is not None:
                        for formal, dist in sets.before.items():
                            arr = amap.get(formal)
                            if arr is None:
                                continue
                            op = RemapOp(arr, dist, "before", s, list(loops))
                            ops.append(op)
                            events.append(op)
                    # the call itself: uses + full kills
                    if exp is not None:
                        for formal in exp.decomp.use - exp.decomp.full_kill:
                            arr = amap.get(formal)
                            if arr is not None:
                                events.append(_Use(arr, s))
                        for formal in exp.decomp.full_kill:
                            arr = amap.get(formal)
                            if arr is not None:
                                events.append(_FullKill(arr, s))
                        for formal in (
                            set(exp.writes) | set(exp.reads)
                        ) - exp.decomp.full_kill:
                            arr = amap.get(formal)
                            if arr is not None:
                                events.append(_Use(arr, s))
                    else:
                        for arr in amap.values():
                            events.append(_Use(arr, s))
                    if sets is not None:
                        for formal, dist in sets.after.items():
                            arr = amap.get(formal)
                            if arr is None:
                                continue
                            restore = (
                                dist if dist is not None
                                else self._inherited_dist(arr, s)
                            )
                            op = RemapOp(arr, restore, "after", s, list(loops))
                            ops.append(op)
                            events.append(op)
                    continue
                if isinstance(s, A.Do):
                    events.append(_LoopStart(s))
                    walk(s.body, loops + [s])
                    events.append(_LoopEnd(s))
                    continue
                if isinstance(s, A.DoWhile):
                    walk(s.body, loops)
                    continue
                if isinstance(s, A.If):
                    walk(s.then_body, loops)
                    walk(s.else_body, loops)
                    continue
                for arr in _stmt_array_uses(s, arrays):
                    events.append(_Use(arr, s))

        walk(self.proc.body, [])
        return ops, events

    def _inherited_dist(
        self, arr: str, stmt: Optional[A.Stmt] = None
    ) -> Optional[Distribution]:
        """The caller's own distribution of *arr* (the restore target of
        a DecompAfter): per-array when unique, else the reaching fact at
        the call statement (needed for COMMON arrays the caller never
        references directly)."""
        info = self.arrays.get(arr)
        if info is not None and info.dist is not None:
            return info.dist
        if self.reaching_pr is not None and stmt is not None:
            dists = {
                d for d in self.reaching_pr.dists_of(arr, stmt)
                if isinstance(d, Distribution)
            }
            if len(dists) == 1:
                return next(iter(dists))
        return None

    # -- optimization passes -----------------------------------------------------

    def _live_pass(self, ops: list[RemapOp], events: list[Event]) -> None:
        """Figure 17: eliminate remaps whose decomposition reaches no
        use.  A "before" remap feeds its own call (always live); "after"
        and "inplace" remaps are live only if some later use (in linear
        order, with loop wrap-around) sees them before another remap of
        the same array."""
        for op in ops:
            if op.where == "before":
                continue
            if self._reaches_use(op, events):
                continue
            op.alive = False
            self.report.remaps_eliminated += 1

    def _reaches_use(self, op: RemapOp, events: list[Event]) -> bool:
        """May-reachability of a use from *op* along any control path:
        forward fall-through plus loop back edges, stopping a path at a
        full kill or another (live) remap of the same array."""
        n = len(events)
        seen: set[int] = set()
        work = [events.index(op) + 1]
        while work:
            i = work.pop()
            while i < n:
                if i in seen:
                    break
                seen.add(i)
                e = events[i]
                if isinstance(e, (_Use, _FullKill)) and e.array == op.array:
                    # a full kill still *uses* the decomposition (the
                    # overwriting statements run on the owners); it only
                    # lets the remap become an in-place marking (§6.3)
                    return True
                if isinstance(e, RemapOp) and e.array == op.array \
                        and e.alive and e is not op:
                    break
                if isinstance(e, _LoopEnd):
                    back = _loop_start_index(events, e.loop) + 1
                    if back not in seen:
                        work.append(back)
                i += 1
        return False

    def _coalesce_pass(self, ops: list[RemapOp], events: list[Event]) -> None:
        """Remove remaps whose incoming decomposition is already the
        target (reaching pass over the linear event order, loops entered
        with unknown state on first join when a remap lives inside)."""
        def join(a, b):
            if a is not None and b is not None and a.same_mapping(b):
                return a
            return None  # unknown

        def initial_state():
            return {
                n: (i.dist if i.dist else None)
                for n, i in self.arrays.items()
            }

        removed_any = True
        outer = 0
        while removed_any and outer < 8:
            removed_any = False
            outer += 1
            # converge the reaching-distribution state through loop back
            # edges first, then decide redundancy with the final states
            backedge: dict[int, dict] = {}
            incoming_at: dict[int, dict[str, Optional[Distribution]]] = {}
            for _round in range(len(events) + 2):
                state = initial_state()
                stable = True
                for e in events:
                    if isinstance(e, _LoopStart):
                        be = backedge.get(id(e.loop))
                        if be is not None:
                            state = {
                                arr: join(state.get(arr), be.get(arr))
                                for arr in set(state) | set(be)
                            }
                    elif isinstance(e, _LoopEnd):
                        prev = backedge.get(id(e.loop))
                        snap = dict(state)
                        if prev != snap:
                            backedge[id(e.loop)] = snap
                            stable = False
                    elif isinstance(e, RemapOp) and e.alive:
                        incoming_at[id(e)] = dict(state)
                        state[e.array] = e.dist
                if stable:
                    break
            for e in events:
                if isinstance(e, RemapOp) and e.alive:
                    cur = incoming_at.get(id(e), {}).get(e.array)
                    if e.dist is not None and cur is not None \
                            and cur.same_mapping(e.dist):
                        e.alive = False
                        self.report.remaps_eliminated += 1
                        removed_any = True
                        break  # states changed; reconverge

    def _hoist_pass(self, ops: list[RemapOp], events: list[Event]) -> None:
        """Loop-invariant decompositions (§6.2): move a remap after its
        loop when unused within it; then hoist the unique remap reaching
        all in-loop uses before the loop."""
        for op in ops:
            if not op.alive or not op.loops:
                continue
            loop = op.loops[-1]
            if not self._used_within_loop(op, loop, events):
                op.hoisted = "post"
                self.report.remaps_hoisted += 1
        for op in ops:
            if not op.alive or not op.loops or op.hoisted:
                continue
            loop = op.loops[-1]
            if self._only_decomp_in_loop(op, loop, events, ops):
                op.hoisted = "pre"
                self.report.remaps_hoisted += 1

    def _used_within_loop(
        self, op: RemapOp, loop: A.Do, events: list[Event]
    ) -> bool:
        start = _loop_start_index(events, loop)
        end = _loop_end_index(events, loop)
        idx = events.index(op)
        # cyclic walk within [start, end] from op
        order = list(range(idx + 1, end)) + list(range(start + 1, idx))
        for i in order:
            e = events[i]
            if isinstance(e, _Use) and e.array == op.array:
                return True
            if isinstance(e, (RemapOp, _FullKill)) and getattr(
                e, "array", None
            ) == op.array and getattr(e, "alive", True):
                return False
        return False

    def _only_decomp_in_loop(
        self, op: RemapOp, loop: A.Do, events: list[Event], ops: list[RemapOp]
    ) -> bool:
        start = _loop_start_index(events, loop)
        end = _loop_end_index(events, loop)
        idx = events.index(op)
        # no other live remap of the same array inside the loop
        for other in ops:
            if other is op or not other.alive or other.hoisted == "post":
                continue
            if other.array == op.array:
                j = events.index(other)
                if start < j < end:
                    return False
        # no use of the array before the remap on the first iteration
        for i in range(start + 1, idx):
            e = events[i]
            if isinstance(e, _Use) and e.array == op.array:
                return False
        return True

    def _kill_pass(self, ops: list[RemapOp], events: list[Event]) -> None:
        """Array kills (§6.3): a remap followed (in its new placement) by
        a full overwrite of the array before any read is a marking."""
        for op in ops:
            if not op.alive:
                continue
            if self._next_access_is_kill(op, events):
                op.mark_only = True
                self.report.remaps_marked += 1

    def _next_access_is_kill(self, op: RemapOp, events: list[Event]) -> bool:
        idx = events.index(op)
        seq = events[idx + 1:]
        if op.hoisted == "post":
            end = _loop_end_index(events, op.loops[-1])
            seq = events[end + 1:]
        for e in seq:
            if isinstance(e, _FullKill) and e.array == op.array:
                return True
            if isinstance(e, _Use) and e.array == op.array:
                return False
            if isinstance(e, RemapOp) and e.array == op.array and e.alive:
                return False
        return False

    # -- emission -------------------------------------------------------------

    def _emit(self, ops: list[RemapOp], dynamic: list[A.Distribute]) -> None:
        for op in ops:
            if not op.alive:
                continue
            if op.dist is None:
                continue  # unknown restore target: nothing to emit
            stmt: A.Stmt
            if op.mark_only:
                stmt = A.MarkDist(op.array, list(op.dist.specs))
            else:
                stmt = A.Remap(op.array, list(op.dist.specs),
                               comment=f"dyn {op.where}")
                self.report.remaps_emitted += 1
            if op.hoisted == "post":
                self.plan.insert_after.setdefault(
                    id(op.loops[-1]), []).append(stmt)
            elif op.hoisted == "pre":
                self.plan.insert_before.setdefault(
                    id(op.loops[-1]), []).append(stmt)
            elif op.where == "before":
                self.plan.insert_before.setdefault(
                    id(op.anchor), []).append(stmt)
            elif op.where == "after":
                self.plan.insert_after.setdefault(
                    id(op.anchor), []).append(stmt)
            else:  # inplace (a Distribute statement being replaced)
                self.plan.replace.setdefault(id(op.anchor), []).append(stmt)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def find_dynamic_distributes(
    proc: A.Procedure, is_main: bool
) -> list[A.Distribute]:
    """DISTRIBUTE statements with run-time remapping semantics: all of
    them in subprograms; those outside the leading static prologue in
    the main program."""
    out: list[A.Distribute] = []
    in_prologue = is_main
    for s in A.walk_stmts(proc.body):
        if isinstance(s, (A.Decomposition, A.Align)):
            continue
        if isinstance(s, A.Distribute):
            if not in_prologue:
                out.append(s)
        elif in_prologue and s in proc.body:
            in_prologue = False
    return out


def _stmt_array_uses(s: A.Stmt, arrays: set[str]) -> set[str]:
    out: set[str] = set()
    if isinstance(s, (A.Do, A.DoWhile, A.If)):
        exprs = list(A.stmt_exprs(s))
    else:
        exprs = list(A.stmt_exprs(s))
    for e in exprs:
        for x in A.walk_exprs(e):
            if isinstance(x, (A.ArrayRef, A.Var)) and x.name in arrays:
                out.add(x.name)
    return out


def _loop_start_index(events: list[Event], loop: A.Do) -> int:
    for i, e in enumerate(events):
        if isinstance(e, _LoopStart) and e.loop is loop:
            return i
    return 0


def _loop_end_index(events: list[Event], loop: A.Do) -> int:
    for i, e in enumerate(events):
        if isinstance(e, _LoopEnd) and e.loop is loop:
            return i
    return len(events) - 1


def _first_access_is_full_kill(
    proc: A.Procedure, arr: str, env: dict
) -> bool:
    """Conservative array-kill detection: the first statement touching
    *arr* is a loop nest assigning every element (identity subscripts
    over the full declared range) with no read of *arr* inside."""
    from ..analysis.symbolics import eval_int

    decl = proc.decl(arr)
    bounds = []
    for lo_e, hi_e in decl.dims:
        lo, hi = eval_int(lo_e, env), eval_int(hi_e, env)
        if lo is None or hi is None:
            return False
        bounds.append((lo, hi))

    def first_touch(body: list[A.Stmt], loops: list[A.Do]):
        for s in body:
            if isinstance(s, A.Do):
                r = first_touch(s.body, loops + [s])
                if r is not None:
                    return r
            elif isinstance(s, A.If):
                r = first_touch(s.then_body, loops)
                if r is None:
                    r = first_touch(s.else_body, loops)
                if r is not None:
                    return r
            elif arr in _stmt_array_uses(s, {arr}):
                return (s, loops)
        return None

    hit = first_touch(proc.body, [])
    if hit is None:
        return False
    s, loops = hit
    if not isinstance(s, A.Assign) or not isinstance(s.target, A.ArrayRef) \
            or s.target.name != arr:
        return False
    # no read of arr on the rhs
    for x in A.walk_exprs(s.expr):
        if isinstance(x, A.ArrayRef) and x.name == arr:
            return False
    if len(s.target.subs) != len(bounds):
        return False
    loop_by_var = {l.var: l for l in loops}
    for sub, (lo, hi) in zip(s.target.subs, bounds):
        if not isinstance(sub, A.Var) or sub.name not in loop_by_var:
            return False
        l = loop_by_var[sub.name]
        if eval_int(l.lo, env) != lo or eval_int(l.hi, env) != hi:
            return False
        if l.step != A.ONE:
            return False
    return True
