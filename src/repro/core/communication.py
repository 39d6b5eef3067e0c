"""Communication analysis and optimization (§3 steps 4-5, §5.4, Fig. 11).

For every right-hand-side reference to a distributed array, the planner

1. classifies the nonlocal access pattern against the statement's
   owner-computes constraint — ``shift`` (constant offset along the
   distributed axis), ``bcast`` (a loop-invariant slice owned by one
   processor), local, or run-time-resolution fallback;
2. uses true-dependence analysis (local references *and* interprocedural
   RSD summaries at call sites) to find the outermost loop level the
   message can be vectorized to — the deepest loop carrying a true
   dependence whose sink is the reference;
3. either instantiates the communication at that level or, when no local
   dependence pins it down and the procedure is not the main program,
   **exports** it to the callers (delayed instantiation), where the same
   analysis repeats with more context.

Pending communication imported from a call site is *not* re-tested for
loop-independent dependences against that same site's own writes — the
callee already proved those harmless (the Figure 10 hoist out of the
``i`` loop depends on this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.dependence import (
    DimAccess,
    classify_rsd_dim,
    classify_subscript,
    true_dependence,
)
from ..analysis.rsd import RSD, Range, SymDim
from ..analysis.symbolics import affine_of, eval_int, substitute
from ..callgraph.acg import CallSite, LoopInfo
from ..lang import ast as A
from .model import Constraint, PendingComm, ProcExports
from .options import Mode, Options
from .partition import ArrayInfo, PartitionPlan


@dataclass
class Ref:
    """One array reference (or RSD summary) in its loop context."""

    array: str
    dims: list[DimAccess]
    section: RSD              # symbolic section (for summaries/messages)
    loops: list[LoopInfo]     # enclosing loops, outermost first
    anchors: list[A.Stmt]     # ancestor statement at each depth 0..len(loops)
    stmt: A.Stmt
    order: int                # execution/textual order index
    is_write: bool
    site: Optional[CallSite] = None  # non-None for call-site summaries


@dataclass
class CommAction:
    """One communication operation to instantiate in this procedure."""

    pending: PendingComm
    anchor: Optional[A.Stmt]   # insert immediately before this statement
    level: int                 # loop depth of the placement


@dataclass
class CommPlan:
    actions: list[CommAction] = field(default_factory=list)
    exported: list[PendingComm] = field(default_factory=list)
    rtr_stmts: dict[int, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def loop_var_set(loops: list[LoopInfo]) -> set[str]:
    return {l.var for l in loops}


def expand_section(
    section: RSD, loops: list[LoopInfo], level: int, env: dict
) -> RSD:
    """Vectorize a section to loop *level*: dimensions indexed by loops
    deeper than *level* widen to the loop's full range."""
    deep = {l.var: l for l in loops[level:]}
    dims: list = []
    for d in section.dims:
        if isinstance(d, SymDim) and d.is_point:
            aff = affine_of(d.lo, env)
            if aff is not None and aff.var in deep:
                l = deep[aff.var]
                lo = _fold_off(l.lo, aff.offset, env)
                hi = _fold_off(l.hi, aff.offset, env)
                lo_i, hi_i = eval_int(lo, env), eval_int(hi, env)
                if lo_i is not None and hi_i is not None:
                    dims.append(Range(lo_i, hi_i))
                else:
                    dims.append(SymDim(lo, hi))
                continue
        dims.append(d)
    return RSD(tuple(dims))


def _fold_off(e: A.Expr, off: int, env: dict) -> A.Expr:
    from ..analysis.symbolics import fold

    return fold(A.add(e, A.Num(off)), env)


def subs_to_section(
    subs: tuple[A.Expr, ...], loops: list[LoopInfo], env: dict
) -> RSD:
    """Symbolic section of a statement reference: loop-indexed subscripts
    stay as symbolic points (expanded later at the placement level)."""
    dims: list = []
    for s in subs:
        v = eval_int(s, env)
        if v is not None:
            dims.append(Range(v, v))
        else:
            dims.append(SymDim(s))
    return RSD(tuple(dims))


def array_binding(site: CallSite) -> dict[str, str]:
    """Callee array name -> caller array name across *site*: formals map
    through the actual arguments; COMMON (global) arrays map to
    themselves ("global variables are simply copied", §5.2)."""
    out = dict(site.array_actuals)
    for g in site.callee_commons:
        out.setdefault(g, g)
    return out


class CommPlanner:
    """Per-procedure communication planning.  *callees* is
    :attr:`~repro.core.recompile.ProcInputs.callees`: ``(site, callee
    exports)`` per call site of *proc*."""

    def __init__(
        self,
        proc: A.Procedure,
        arrays: dict[str, ArrayInfo],
        plan: PartitionPlan,
        opts: Options,
        callees: tuple[tuple[CallSite, Optional[ProcExports]], ...],
        env: dict,
        is_main: bool,
    ) -> None:
        self.proc = proc
        self.arrays = arrays
        self.plan = plan
        self.opts = opts
        self.callees = callees
        self.env = env
        self.is_main = is_main
        self.writes: list[Ref] = []
        self.reads: list[Ref] = []
        self.result = CommPlan()
        self.exports_writes: dict[str, list[RSD]] = {}
        self.exports_reads: dict[str, list[RSD]] = {}
        self._order = 0
        self._site_of_call: dict[int, tuple] = {
            id(site.stmt): (site, exp) for site, exp in callees
        }

    # -- reference collection ------------------------------------------------

    def collect(self) -> None:
        self._walk(self.proc.body, [], [None])

    def _walk(
        self,
        body: list[A.Stmt],
        loops: list[LoopInfo],
        anchor_stack: list[Optional[A.Stmt]],
    ) -> None:
        for s in body:
            if isinstance(s, A.Do):
                info = LoopInfo(s.var, s.lo, s.hi, s.step, s, len(loops) + 1)
                self._walk(s.body, loops + [info],
                           self._push_anchor(anchor_stack, s) + [None])
            elif isinstance(s, A.DoWhile):
                self._walk(s.body, loops,
                           self._push_anchor(anchor_stack, s))
            elif isinstance(s, A.If):
                self._collect_cond(s, loops, self._anchors(anchor_stack, s))
                st = self._push_anchor(anchor_stack, s)
                self._walk(s.then_body, loops, st)
                self._walk(s.else_body, loops, st)
            elif isinstance(s, A.Assign):
                self._collect_assign(s, loops, self._anchors(anchor_stack, s))
            elif isinstance(s, A.Call):
                self._collect_call(s, loops, self._anchors(anchor_stack, s))

    @staticmethod
    def _push_anchor(
        stack: list[Optional[A.Stmt]], s: A.Stmt
    ) -> list[Optional[A.Stmt]]:
        return [a if a is not None else s for a in stack]

    @staticmethod
    def _anchors(stack: list[Optional[A.Stmt]], s: A.Stmt) -> list[A.Stmt]:
        return [a if a is not None else s for a in stack]

    def _next_order(self) -> int:
        self._order += 1
        return self._order

    def _collect_assign(
        self, s: A.Assign, loops: list[LoopInfo], anchors: list[A.Stmt]
    ) -> None:
        lv = loop_var_set(loops)
        if isinstance(s.target, A.ArrayRef):
            dims = [classify_subscript(x, lv, self.env) for x in s.target.subs]
            self.writes.append(Ref(
                s.target.name, dims,
                subs_to_section(s.target.subs, loops, self.env),
                loops, anchors, s, self._next_order(), True,
            ))
        else:
            self._next_order()
        for ref in self._expr_refs(s.expr):
            dims = [classify_subscript(x, lv, self.env) for x in ref.subs]
            self.reads.append(Ref(
                ref.name, dims,
                subs_to_section(ref.subs, loops, self.env),
                loops, anchors, s, self._order, False,
            ))
        # reads inside the target's subscripts
        if isinstance(s.target, A.ArrayRef):
            for sub in s.target.subs:
                for ref in self._expr_refs(sub):
                    dims = [classify_subscript(x, lv, self.env)
                            for x in ref.subs]
                    self.reads.append(Ref(
                        ref.name, dims,
                        subs_to_section(ref.subs, loops, self.env),
                        loops, anchors, s, self._order, False,
                    ))

    def _expr_refs(self, e: A.Expr) -> list[A.ArrayRef]:
        return [x for x in A.walk_exprs(e) if isinstance(x, A.ArrayRef)]

    def _collect_cond(
        self, s: A.If, loops: list[LoopInfo], anchors: list[A.Stmt]
    ) -> None:
        """Branch conditions read distributed data too: their references
        join the normal planning (a loop-invariant slice becomes one
        hoisted broadcast — the pivot-search pattern); anything the
        classifier rejects is marked for the element-broadcast rewrite."""
        lv = loop_var_set(loops)
        order = self._next_order()
        for ref in self._expr_refs(s.cond):
            info = self.arrays.get(ref.name)
            if info is None or not info.distributed:
                continue
            dims = [classify_subscript(x, lv, self.env) for x in ref.subs]
            self.reads.append(Ref(
                ref.name, dims,
                subs_to_section(ref.subs, loops, self.env),
                loops, anchors, s, order, False,
            ))

    def _collect_call(
        self, s: A.Call, loops: list[LoopInfo], anchors: list[A.Stmt]
    ) -> None:
        order = self._next_order()
        site, exports = self._site_of_call.get(id(s), (None, None))
        lv = loop_var_set(loops)
        # scalar-expression argument reads
        for a in s.args:
            for ref in self._expr_refs(a):
                dims = [classify_subscript(x, lv, self.env) for x in ref.subs]
                self.reads.append(Ref(
                    ref.name, dims,
                    subs_to_section(ref.subs, loops, self.env),
                    loops, anchors, s, order, False,
                ))
        if exports is None:
            return
        bindings = site.actual_of
        arrays_map = array_binding(site)
        # translated write/read RSD summaries become refs at this site
        for formal, sections in exports.writes.items():
            actual = arrays_map.get(formal)
            if actual is None:
                continue
            for sec in sections:
                tsec = translate_section(sec, bindings, self.env)
                dims = [classify_rsd_dim(d, lv, self.env) for d in tsec.dims]
                self.writes.append(Ref(
                    actual, dims, tsec, loops, anchors, s, order, True,
                    site=site,
                ))
        for formal, sections in exports.reads.items():
            actual = arrays_map.get(formal)
            if actual is None:
                continue
            for sec in sections:
                tsec = translate_section(sec, bindings, self.env)
                dims = [classify_rsd_dim(d, lv, self.env) for d in tsec.dims]
                self.reads.append(Ref(
                    actual, dims, tsec, loops, anchors, s, order, False,
                    site=site,
                ))

    # -- classification -------------------------------------------------------

    def classify_read(
        self, ref: Ref, constraint: Optional[Constraint]
    ) -> Optional[PendingComm]:
        """Decide what communication (if any) a read reference needs.

        Returns None for local accesses; raises :class:`_NeedsRTR` for
        patterns outside the compiled subset.
        """
        info = self.arrays.get(ref.array)
        if info is None or not info.distributed:
            return None
        if ref.array in self.plan.rtr_arrays:
            raise _NeedsRTR(self.plan.rtr_arrays[ref.array])
        axis = info.axis
        d = ref.dims[axis]
        dimdist = info.dist.dims[axis]
        lv = loop_var_set(ref.loops)
        if constraint is not None and constraint.dimdist != dimdist:
            raise _NeedsRTR(
                f"{ref.array}: distribution differs from the statement's "
                f"partition ({dimdist.describe()} vs "
                f"{constraint.dimdist.describe()})"
            )
        if constraint is not None and d.kind in ("var", "symrange") \
                and d.var == constraint.var:
            delta = d.off - constraint.off
            if d.kind == "symrange":
                raise _NeedsRTR(
                    f"{ref.array}: range subscript on the partitioned axis"
                )
            if delta == 0:
                return None
            if dimdist.kind == "block" and abs(delta) >= dimdist.block:
                raise _NeedsRTR(
                    f"{ref.array}: shift {delta} exceeds block size"
                )
            if delta < 0 and dimdist.kind == "block" and \
                    self._is_self_recurrence(ref, constraint):
                # x(i) = f(x(i-d)): a true dependence carried at the
                # partitioned loop.  Vectorized prefetch is illegal, but
                # the block layout admits coarse-grain pipelining: each
                # processor computes its whole block after receiving the
                # boundary strip its left neighbour finished producing.
                return PendingComm(
                    ref.array, "pipeline", axis, dimdist, ref.section,
                    delta=delta,
                    origin=f"{self.proc.name}:{expr_str_safe(ref)}",
                )
            if dimdist.kind == "block_cyclic":
                raise _NeedsRTR(
                    f"{ref.array}: shift across a block_cyclic "
                    f"distribution (multi-neighbour pattern)"
                )
            return PendingComm(
                ref.array, "shift", axis, dimdist, ref.section, delta=delta,
                origin=f"{self.proc.name}:{expr_str_safe(ref)}",
            )
        # single-owner slice: broadcast from its owner.  The subscript
        # may be a loop variable (the pivot column index k): placement
        # is then clamped inside that loop by the at-variable rule in
        # _place, giving one broadcast per iteration of *that* loop.
        if d.kind in ("const", "sym", "var"):
            sub_expr = self._axis_expr(ref, axis)
            if constraint is not None and _same_point(
                constraint, d
            ):
                return None  # owner-guarded statement reading its own slice
            return PendingComm(
                ref.array, "bcast", axis, dimdist, ref.section,
                at=sub_expr,
                origin=f"{self.proc.name}:{expr_str_safe(ref)}",
            )
        raise _NeedsRTR(
            f"{ref.array}: unsupported access on distributed axis "
            f"({d.kind})"
        )

    def _is_self_recurrence(self, ref: Ref, constraint) -> bool:
        """True when *ref* is the rhs of an assignment whose lhs is the
        same array at the partition subscript (the classic first-order
        recurrence), inside the partitioned loop."""
        s = ref.stmt
        if not isinstance(s, A.Assign) or not isinstance(s.target, A.ArrayRef):
            return False
        if s.target.name != ref.array:
            return False
        if not ref.loops or ref.loops[-1].var != constraint.var:
            return False
        # unit stride only: with a larger step the write and read sets
        # may be disjoint (red-black sweeps) and the wavefront protocol
        # would impose a dependence that does not exist
        if ref.loops[-1].step != A.ONE:
            return False
        return True

    def _axis_expr(self, ref: Ref, axis: int) -> A.Expr:
        d = ref.section.dims[axis]
        if isinstance(d, SymDim) and d.is_point:
            return d.lo
        if isinstance(d, Range) and d.lo == d.hi:
            return A.Num(d.lo)
        raise _NeedsRTR(f"{ref.array}: broadcast of non-point slice")

    # -- dependence-driven placement -------------------------------------------

    def placement_level(self, ref: Ref) -> tuple[int, bool]:
        """(level, pinned) for *ref*'s communication.

        ``level`` is the deepest loop that carries (or contains, for
        loop-independent deps) a true dependence whose sink is *ref* —
        the loop the message is vectorized within.  ``pinned`` is True
        when *any* true dependence from a local write reaches *ref*:
        then the communication must be generated in this procedure,
        placed after the write (the paper's §5.4 rule); only unpinned
        references may be delayed to the caller.
        """
        level = 0
        pinned = False
        for w in self.writes:
            if w.array != ref.array:
                continue
            common = _common_loops(w.loops, ref.loops)
            same_site = (
                w.site is not None and ref.site is not None
                and w.site is ref.site
            )
            same_stmt = w.stmt is ref.stmt
            w_before_r = (
                not same_site and not same_stmt and w.order <= ref.order
            )
            dep = true_dependence(
                w.dims, ref.dims, common, self.env, w_before_r=w_before_r
            )
            if dep is None:
                continue
            pinned = True
            if dep.carried_levels:
                level = max(level, dep.deepest())
            if dep.loop_independent:
                level = max(level, len(common))
        return level, pinned

    # -- main entry -------------------------------------------------------------

    def analyze(self) -> CommPlan:
        self.collect()
        self._build_summaries()
        # reads of local statements
        for ref in self.reads:
            if ref.site is not None:
                continue
            self._plan_ref(ref, from_site=None)
        # pending communication imported from call sites
        for site, exports in self.callees:
            if exports is None:
                continue
            for p in exports.pending:
                self._import_pending(p, site)
        self._coalesce()
        return self.result

    def _plan_ref(self, ref: Ref, from_site: Optional[CallSite]) -> None:
        constraint = self.plan.stmt_constraint.get(id(ref.stmt))
        try:
            pending = self.classify_read(ref, constraint)
        except _NeedsRTR as e:
            why = str(e)
            if isinstance(ref.stmt, A.If):
                why = f"branch condition: {why}"
            self.result.rtr_stmts[id(ref.stmt)] = why
            return
        if pending is None:
            return
        self._place(pending, ref)

    def _import_pending(self, p: PendingComm, site: CallSite) -> None:
        actual = array_binding(site).get(p.array)
        if actual is None:
            return
        info = self.arrays.get(actual)
        if info is None or not info.distributed:
            # COMMON arrays may not be declared in this procedure: the
            # pending's own distribution (validated by reaching in the
            # callee) is authoritative, so analysis proceeds
            if actual not in site.callee_commons \
                    and actual not in self.proc.commons:
                return
        if actual in self.plan.rtr_arrays:
            self.result.rtr_stmts[id(site.stmt)] = (
                self.plan.rtr_arrays[actual]
            )
            return
        tsec = translate_section(p.section, site.actual_of, self.env)
        at = substitute(p.at, site.actual_of) if p.at is not None else None
        lv = {l.var for l in site.loops}
        dims = [classify_rsd_dim(d, lv, self.env) for d in tsec.dims]
        anchors = self._site_anchors(site)
        ref = Ref(actual, dims, tsec, site.loops, anchors, site.stmt,
                  self._order_of(site.stmt), False, site=site)
        pending = PendingComm(actual, p.kind, p.axis, p.dimdist, tsec,
                              delta=p.delta, at=at, origin=p.origin)
        self._place(pending, ref)

    def _order_of(self, stmt: A.Stmt) -> int:
        for w in self.writes:
            if w.stmt is stmt:
                return w.order
        for r in self.reads:
            if r.stmt is stmt:
                return r.order
        return self._order + 1

    def _site_anchors(self, site: CallSite) -> list[A.Stmt]:
        """Ancestor chain of a call statement at each loop depth."""
        anchors: list[A.Stmt] = []
        target: A.Stmt = site.stmt
        chain = _ancestor_chain(self.proc.body, target)
        # chain includes every enclosing statement; pick the one directly
        # inside each loop of site.loops (plus top level)
        depth_anchor: list[A.Stmt] = []
        bodies: list[list[A.Stmt]] = [self.proc.body]
        for l in site.loops:
            bodies.append(l.stmt.body)
        for b in bodies:
            a = _anchor_in(b, target, chain)
            depth_anchor.append(a if a is not None else target)
        return depth_anchor

    def _place(self, pending: PendingComm, ref: Ref) -> None:
        from ..analysis.symbolics import free_vars

        if pending.kind == "pipeline":
            # anchored at the partitioned (innermost) loop: the recv
            # precedes it, the send of the finished boundary follows it
            anchor = ref.anchors[len(ref.loops) - 1] if ref.loops else ref.stmt
            self.result.actions.append(
                CommAction(pending, anchor, len(ref.loops) - 1)
            )
            self.result.notes.append(
                f"pipelined at block granularity: {pending.describe()}"
            )
            return
        level, pinned = self.placement_level(ref)
        # A broadcast whose root subscript varies with a local loop
        # (e.g. the pivot column index k) selects a *different owner per
        # iteration*: it can never hoist above that loop, dependences or
        # not.
        if pending.kind == "bcast" and pending.at is not None:
            at_vars = free_vars(pending.at)
            for depth, l in enumerate(ref.loops, start=1):
                if l.var in at_vars:
                    level = max(level, depth)
        # Delaying hands the section/root expressions to the caller,
        # which can only evaluate formals and parameters — check on the
        # *expanded* section (loop bounds may themselves mention locals).
        exportable_names = set(self.proc.formals) | set(self.env)
        expanded = expand_section(pending.section, ref.loops, 0, self.env)
        mentioned: set[str] = set()
        if pending.at is not None:
            mentioned |= free_vars(pending.at)
        for d in expanded.dims:
            if isinstance(d, SymDim):
                mentioned |= free_vars(d.lo)
                if d.hi is not None:
                    mentioned |= free_vars(d.hi)
        translatable = mentioned <= exportable_names
        can_delay = (
            level == 0
            and not pinned
            and translatable
            and not self.is_main
            and self.opts.mode is Mode.INTER
            and self.opts.delay_communication
        )
        if can_delay:
            # vectorized over all local loops, in caller-translatable terms
            pending.section = expanded
            self.result.exported.append(pending)
            self.result.notes.append(
                f"delayed: {pending.describe()}"
            )
            return
        section = expand_section(pending.section, ref.loops, level, self.env)
        placed = PendingComm(pending.array, pending.kind, pending.axis,
                             pending.dimdist, section, delta=pending.delta,
                             at=pending.at, origin=pending.origin)
        anchor = ref.anchors[level] if level < len(ref.anchors) else ref.stmt
        if level == 0 and not ref.anchors:
            anchor = ref.stmt
        self.result.actions.append(CommAction(placed, anchor, level))
        self.result.notes.append(
            f"vectorized at level {level}: {placed.describe()}"
        )

    def _coalesce(self) -> None:
        """Merge identical/mergeable messages at the same anchor
        (message coalescing, §5.4), and subsume same-direction shifts:
        the boundary strip of a larger |delta| contains the smaller's
        (Livermore-kernel-style ``z(k+10)``/``z(k+11)`` pairs need one
        message, not two)."""
        self._subsume_shifts(self.result.actions)
        merged: list[CommAction] = []
        for act in self.result.actions:
            for m in merged:
                if (
                    m.pending.array == act.pending.array
                    and m.pending.kind == act.pending.kind
                    and m.pending.axis == act.pending.axis
                    and m.pending.delta == act.pending.delta
                    and m.pending.at == act.pending.at
                    and m.anchor is act.anchor
                ):
                    u = m.pending.section.merge(act.pending.section)
                    if u is not None:
                        m.pending.section = u
                        break
                    if m.pending.section == act.pending.section:
                        break
            else:
                merged.append(act)
                continue
        self.result.actions = merged
        exported: list[PendingComm] = []
        for p in self.result.exported:
            for q in exported:
                if (
                    q.array == p.array and q.kind == p.kind
                    and q.axis == p.axis and q.delta == p.delta
                    and q.at == p.at
                ):
                    u = q.section.merge(p.section)
                    if u is not None:
                        q.section = u
                        break
                    if q.section == p.section:
                        break
            else:
                exported.append(p)
        self.result.exported = exported

    def _subsume_shifts(self, actions: list[CommAction]) -> None:
        for act in list(actions):
            p = act.pending
            if p.kind != "shift":
                continue
            for other in actions:
                if other is act:
                    continue
                q = other.pending
                if (
                    q.kind == "shift"
                    and q.array == p.array
                    and q.axis == p.axis
                    and other.anchor is act.anchor
                    and q.delta * p.delta > 0
                    and abs(q.delta) >= abs(p.delta)
                    and q.section.dims[:q.axis] == p.section.dims[:p.axis]
                    and q.section.dims[q.axis + 1:] ==
                        p.section.dims[p.axis + 1:]
                ):
                    if abs(q.delta) > abs(p.delta) or other is not act:
                        actions.remove(act)
                        self.result.notes.append(
                            f"subsumed: {p.describe()} by {q.describe()}"
                        )
                        break

    # -- summaries for callers ---------------------------------------------------

    def _build_summaries(self) -> None:
        for w in self.writes:
            sec = expand_section(w.section, w.loops, 0, self.env)
            self.exports_writes.setdefault(w.array, []).append(sec)
        for r in self.reads:
            sec = expand_section(r.section, r.loops, 0, self.env)
            self.exports_reads.setdefault(r.array, []).append(sec)
        for d in (self.exports_writes, self.exports_reads):
            for arr, secs in d.items():
                from ..analysis.rsd import merge_rsd_list

                d[arr] = merge_rsd_list(secs)[:8]  # cap summary size


class _NeedsRTR(Exception):
    pass


def _same_point(c: Constraint, d: DimAccess) -> bool:
    if d.kind == "const":
        return False
    return c.var == d.var and c.off == d.off


def _common_loops(a: list[LoopInfo], b: list[LoopInfo]) -> list[LoopInfo]:
    out = []
    for x, y in zip(a, b):
        if x.stmt is y.stmt:
            out.append(x)
        else:
            break
    return out


def translate_section(sec: RSD, bindings: dict, env: dict) -> RSD:
    """Translate a section across a call boundary: substitute actuals for
    formals, folding numeric results."""
    from ..analysis.symbolics import fold

    dims: list = []
    for d in sec.dims:
        if isinstance(d, Range):
            dims.append(d)
            continue
        lo = fold(substitute(d.lo, bindings), env)
        hi = fold(substitute(d.hi, bindings), env) if d.hi is not None else None
        lo_i = eval_int(lo, env)
        hi_i = eval_int(hi, env) if hi is not None else None
        if hi is None:
            if lo_i is not None:
                dims.append(Range(lo_i, lo_i))
            else:
                dims.append(SymDim(lo))
        elif lo_i is not None and hi_i is not None:
            dims.append(Range(lo_i, hi_i))
        else:
            dims.append(SymDim(lo, hi))
    return RSD(tuple(dims))


def expr_str_safe(ref: Ref) -> str:
    return f"{ref.array}{ref.section}"


def _ancestor_chain(body: list[A.Stmt], target: A.Stmt) -> list[A.Stmt]:
    """Statements on the path from *body* down to *target* (inclusive)."""

    def find(b: list[A.Stmt]) -> Optional[list[A.Stmt]]:
        for s in b:
            if s is target:
                return [s]
            for blk in A.child_blocks(s):
                sub = find(blk)
                if sub is not None:
                    return [s] + sub
        return None

    return find(body) or [target]


def _anchor_in(
    body: list[A.Stmt], target: A.Stmt, chain: list[A.Stmt]
) -> Optional[A.Stmt]:
    # identity, not equality: two textually identical call statements
    # are distinct anchors
    for s in body:
        if any(s is c for c in chain):
            return s
    return None
