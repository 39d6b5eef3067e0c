"""The whole-program Fortran D compiler driver.

Phases (§4, §5):

1. **Local analysis** — reaching-decomposition summaries, directive
   tables, call graph construction (the ACG).
2. **Interprocedural propagation** — reaching decompositions top-down,
   procedure cloning, side effects.
3. **Interprocedural code generation** — one pass over the procedures in
   reverse topological order (:func:`sweep`); each
   :class:`ProcedureCompiler` consumes its callees' exports (delayed
   partitions, pending communication, RSD summaries, decomposition
   sets) and produces its own.

The result executes directly on the simulated machine via
:meth:`CompiledProgram.run`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional, Union

from ..analysis.constants import local_param_env
from ..analysis.symbolics import affine_of
from ..callgraph.acg import ACG
from ..dist import Distribution
from ..runtime.node import (
    SPMDResult,
    default_init,
    find_blocking_units,
    run_spmd,
)
from ..lang import ast as A
from ..lang import join_units, parse_summaries, procedure_str, program_str
from ..machine.costmodel import CostModel, IPSC860
from ..obs import resolve_trace
from ..settings import Settings
from .cloning import clone_program
from .codegen import (
    RewritePlan,
    TagAllocator,
    build_comm,
    build_p2p_from_bcast,
    ensure_myproc,
    rewrite_body,
    rtr_rewrite_assign,
)
from .communication import CommPlanner
from .dynamic import DynamicDecompPlanner
from .model import (
    CompileError,
    Constraint,
    ProcExports,
    apply_dist_overrides,
)
from .options import Mode, Options, CompileReport
from .partition import (
    PartitionPlan,
    UnsupportedSubscript,
    owner_constraint,
    plan_blocks,
    resolve_arrays,
)
from .reaching import ReachingResult, compute_reaching
from .recompile import (
    ProcInputs,
    ProcSummary,
    inputs_fingerprint,
    proc_inputs,
    store_opts_fingerprint,
    unit_fingerprint,
)


@dataclass
class CompiledProgram:
    """A compiled SPMD node program plus everything needed to run it."""

    program: A.Program
    initial_dists: dict[tuple[str, str], Distribution]
    report: CompileReport
    opts: Options
    #: a shared assembly's pieces in unit order (their trees are
    #: ``program``'s units); None for an unshared one
    pieces: Optional[list[Piece]] = field(default=None, repr=False,
                                          compare=False)

    def run(
        self,
        cost: CostModel = IPSC860,
        timeout_s: Optional[float] = None,
        init_fn=None,
        vectorize: Optional[bool] = None,
        faults=None,
        scheduler: Optional[str] = None,
        trace=None,
        topology=None,
        codegen: Optional[bool] = None,
        metrics=None,
    ) -> SPMDResult:
        """Execute on the simulated machine; the arguments are
        :func:`~repro.runtime.node.run_spmd`'s."""
        return run_spmd(
            self.program,
            self.opts.nprocs,
            cost,
            initial_dists=self.initial_dists,
            init_fn=init_fn or default_init,
            timeout_s=timeout_s,
            vectorize=vectorize,
            faults=faults,
            scheduler=scheduler,
            trace=trace,
            topology=topology,
            codegen=codegen,
            metrics=metrics,
        )

    def text(self) -> str:
        """The generated node program, Figure-2/10-style.  A shared
        assembly joins its pieces' texts, printing only those never
        printed."""
        if self.pieces is None:
            return program_str(self.program)
        return join_units(p.text() for p in self.pieces)

    def explain(self) -> str:
        """The compile report as ``fdc --report`` prints it, one
        ``! <kind> ...`` line per fact: distributions chosen, clones
        created, communication placements, run-time-resolution
        fallbacks and demotions, remap counts, overlaps and notes.
        Iteration orders are sorted, so the text is byte-identical
        across runs."""
        r = self.report
        lines = [f"! mode={r.mode.value} nprocs={r.nprocs}"]
        lines += [f"! dist {proc}.{arr}: {d}"
                  for proc, dists in sorted(r.distributions.items())
                  for arr, d in sorted(dists.items())]
        lines += [f"! cloned {base} -> {', '.join(clones)}"
                  for base, clones in sorted(r.cloned.items())]
        lines += [f"! comm {line}" for line in r.comm_placements]
        lines += [f"! rtr-fallback {line}" for line in r.rtr_fallbacks]
        lines += [f"! rtr-demotion {line}" for line in r.rtr_demotions]
        if r.remaps_emitted or r.remaps_eliminated or r.remaps_marked:
            lines.append(f"! remaps emitted={r.remaps_emitted} "
                         f"eliminated={r.remaps_eliminated} "
                         f"hoisted={r.remaps_hoisted} "
                         f"marked={r.remaps_marked}")
        lines += [f"! overlap {proc}.{arr}: {offs}"
                  for (proc, arr), offs in sorted(r.overlaps.items())]
        lines += [f"! note {note}" for note in r.notes]
        return "\n".join(lines)


class ProcedureCompiler:
    """Compiles one procedure in the reverse-topological sweep."""

    def __init__(
        self,
        proc: A.Procedure,
        inputs: ProcInputs,
        opts: Options,
        report: CompileReport,
        tags: TagAllocator,
        is_main: bool,
    ) -> None:
        self.proc = proc
        self.inputs = inputs
        self.opts = opts
        self.report = report
        self.tags = tags
        self.is_main = is_main
        env = local_param_env(proc)
        env.update(inputs.constants)
        self.env = env

    # ------------------------------------------------------------------

    def compile(self) -> ProcExports:
        proc, opts = self.proc, self.opts
        pr = self.inputs.reaching
        arrays, rtr_arrays = resolve_arrays(proc, pr, opts)
        self.report.distributions[proc.name] = {
            n: (str(i.dist) if i.dist else "replicated")
            for n, i in arrays.items()
        }
        for n, why in rtr_arrays.items():
            self.report.rtr_fallbacks.append(f"{proc.name}.{n}: {why}")

        if opts.mode is Mode.RTR:
            return self._compile_rtr(arrays, rtr_arrays)

        forced_rtr: dict[int, str] = {}
        allow_export = True
        for _round in range(8):
            plan = PartitionPlan(arrays=arrays, rtr_arrays=dict(rtr_arrays))
            plan.rtr_stmts.update(forced_rtr)
            self._assign_constraints(plan)
            plan_blocks(proc, plan, opts, self.env, self.is_main,
                        allow_export=allow_export)
            planner = CommPlanner(
                proc, arrays, plan, opts,
                self.inputs.callees, self.env, self.is_main,
            )
            comm = planner.analyze()
            self._check_collective_safety(plan, comm)
            self._reduction_safety(plan)
            for sid, why in plan.rtr_stmts.items():
                if sid not in forced_rtr and "reduction over" in why:
                    comm.rtr_stmts.setdefault(sid, why)
            # An exported constraint means callers may restrict who calls
            # this procedure; any synchronizing construct in its body
            # (pipeline exchanges, collectives other than the degraded
            # point-to-point broadcast) would then desynchronize.  Cancel
            # the export and guard internally instead.
            if allow_export and plan.export is not None and (
                any(a.pending.kind == "pipeline" for a in comm.actions)
                or plan.reductions
            ):
                allow_export = False
                continue
            new_rtr = {
                sid: why for sid, why in comm.rtr_stmts.items()
                if sid not in forced_rtr
            }
            if not new_rtr:
                break
            forced_rtr.update(new_rtr)
            for why in new_rtr.values():
                self.report.rtr_fallbacks.append(f"{proc.name}: {why}")
        else:  # pragma: no cover - the fixpoint always terminates
            raise CompileError(f"{proc.name}: partition planning diverged")

        dyn = DynamicDecompPlanner(
            proc, arrays, opts, self.inputs.callees, self.env,
            self.is_main, self.report, reaching_pr=pr,
        )
        dyn_plan = dyn.analyze()

        self._rewrite(plan, comm, dyn_plan, arrays)
        exports = ProcExports(proc.name)
        exports.constraint = plan.export
        exports.pending = comm.exported
        exports.writes = _sanitize_summaries(
            planner.exports_writes, proc, arrays
        )
        exports.reads = _sanitize_summaries(
            planner.exports_reads, proc, arrays
        )
        exports.decomp = dyn_plan.sets
        exports.overlap_offsets = self._overlaps(comm, arrays)
        for act in comm.actions:
            self.report.comm_placements.append(
                f"{proc.name}: level {act.level} {act.pending.describe()}"
            )
            self.report.comm_sites.append(
                (proc.name, act.pending.array, act.pending.kind)
            )
        return exports

    # -- constraints ------------------------------------------------------

    def _assign_constraints(self, plan: PartitionPlan) -> None:
        site_of = {id(site.stmt): (site, exp)
                   for site, exp in self.inputs.callees}
        self._detect_reductions(plan)
        for s in A.walk_stmts(self.proc.body):
            sid = id(s)
            if sid in plan.rtr_stmts or sid in plan.reductions:
                continue
            if isinstance(s, A.Assign) and isinstance(s.target, A.ArrayRef):
                info = plan.arrays.get(s.target.name)
                if info is None:
                    continue
                if s.target.name in plan.rtr_arrays:
                    plan.rtr_stmts[sid] = plan.rtr_arrays[s.target.name]
                    continue
                if not info.distributed:
                    plan.stmt_constraint[sid] = None
                    continue
                try:
                    plan.stmt_constraint[sid] = owner_constraint(
                        info, s.target.subs, self.env
                    )
                except UnsupportedSubscript as e:
                    why = (
                        f"unsupported lhs subscript {e} on {s.target.name}"
                    )
                    plan.rtr_stmts[sid] = why
                    full = f"{self.proc.name}: {why}"
                    if full not in self.report.rtr_fallbacks:
                        self.report.rtr_fallbacks.append(full)
            elif isinstance(s, A.Call):
                site, exp = site_of.get(sid, (None, None))
                if site is None:
                    continue
                if exp is None or exp.constraint is None:
                    plan.stmt_constraint[sid] = None
                    continue
                c = exp.constraint
                new_sub = site.translate_expr(c.sub)
                aff = affine_of(new_sub, self.env)
                plan.stmt_constraint[sid] = Constraint(
                    c.dimdist, new_sub,
                    aff.var if aff else None,
                    aff.offset if aff else 0,
                )

    def _detect_reductions(self, plan: PartitionPlan) -> None:
        """Recognize reduction idioms (core.reductions); a recognized
        statement is partitioned by its distributed operand and combined
        with a global reduction after the loop."""
        from .reductions import recognize_reduction

        # reductions are an intraprocedural recognition: both compile-
        # time modes get them; only run-time resolution goes without
        if self.opts.mode is Mode.RTR:
            return
        counter = [0]

        def walk(body, loops):
            for s in body:
                if isinstance(s, A.Do):
                    walk(s.body, loops + [s])
                elif isinstance(s, A.If):
                    walk(s.then_body, loops)
                    walk(s.else_body, loops)
                elif isinstance(s, A.Assign) and isinstance(s.target, A.Var):
                    counter[0] += 1
                    spec = recognize_reduction(
                        s, loops, plan.arrays, self.env, counter[0]
                    )
                    if spec is not None and \
                            spec.constraint.dimdist.kind in ("block", "cyclic"):
                        plan.reductions[id(s)] = spec
                        plan.stmt_constraint[id(s)] = spec.constraint

        walk(self.proc.body, [])

    def _reduction_safety(self, plan: PartitionPlan) -> None:
        """The combining GlobalReduce is a collective: every loop
        enclosing the reduction loop must be executed by all processors.
        Otherwise the recognition is withdrawn (the statement falls back
        to run-time resolution in the next planning round)."""
        for sid, spec in list(plan.reductions.items()):
            bad = False
            for anc in A.ancestors(self.proc.body, spec.loop):
                if id(anc) in plan.loop_reduce or id(anc) in plan.guard_stmt:
                    bad = True
                    break
            if bad:
                del plan.reductions[sid]
                plan.stmt_constraint.pop(sid, None)
                plan.rtr_stmts[sid] = (
                    f"reduction over {spec.var} nested inside a "
                    f"partitioned loop"
                )

    # -- safety: collectives & matched sends must be reached by all procs --

    def _check_collective_safety(self, plan: PartitionPlan, comm) -> None:
        reduced = set(plan.loop_reduce)
        guarded = set(plan.guard_stmt)
        for act in list(comm.actions):
            path = act.anchor
            # every enclosing loop up to the placement level must be
            # executed identically by all processors
            bad = False
            for anc in A.ancestors(self.proc.body, act.anchor):
                if id(anc) in reduced or id(anc) in guarded:
                    bad = True
                    break
            if bad:
                comm.actions.remove(act)
                sid = id(act.anchor)
                comm.rtr_stmts[sid] = (
                    f"communication for {act.pending.array} pinned inside a "
                    f"partitioned loop (no pipelinable recurrence form)"
                )

    # -- rewriting -----------------------------------------------------------

    def _rewrite(self, plan, comm, dyn_plan, arrays) -> None:
        rw = RewritePlan()
        rw.loop_reduce = plan.loop_reduce
        rw.guard_stmt = dict(plan.guard_stmt)
        rw.replace.update(dyn_plan.replace)
        for sid, stmts in dyn_plan.insert_before.items():
            rw.insert_before.setdefault(sid, []).extend(stmts)
        for sid, stmts in dyn_plan.insert_after.items():
            rw.insert_after.setdefault(sid, []).extend(stmts)
        distributed = {
            n for n, i in arrays.items()
            if i.distributed or n in plan.rtr_arrays
        }
        # reduction prologues/epilogues around their partitioned loops
        from .reductions import reduction_epilogue, reduction_prologue

        for spec in plan.reductions.values():
            rw.insert_before.setdefault(id(spec.loop), []).extend(
                reduction_prologue(spec)
            )
            rw.insert_after.setdefault(id(spec.loop), []).extend(
                reduction_epilogue(spec)
            )
        # communication insertions
        for act in comm.actions:
            if act.pending.kind == "pipeline":
                continue  # second pass: their receives must follow all
                          # pre-loop sends or a wavefront could deadlock
            recv_c = None
            if act.pending.kind == "bcast":
                # A collective may only be instantiated where *all*
                # processors execute.  When the whole procedure runs
                # under an exported owner-computes constraint (callers
                # reduce their loops, so only owners call it), the
                # broadcast degrades to a point-to-point transfer from
                # the data's owner to the executing owner.  INTRA mode
                # additionally degrades under its uniform local guard —
                # Figure 12's per-call send/recv shape.
                recv_c = plan.export
                if recv_c is None and self.opts.mode is Mode.INTRA:
                    recv_c = self._uniform_guard(plan)
            if recv_c is not None:
                stmts = build_p2p_from_bcast(act, recv_c, self.tags)
            else:
                stmts = build_comm(act, self.tags)
            rw.insert_before.setdefault(id(act.anchor), []).extend(stmts)
        # pipeline exchanges: pre-loop receive appended after every
        # other pre-loop message, post-loop send appended after the loop
        from .codegen import build_pipeline

        for act in comm.actions:
            if act.pending.kind != "pipeline":
                continue
            pre, post = build_pipeline(act, self.tags)
            rw.insert_before.setdefault(id(act.anchor), []).extend(pre)
            rw.insert_after.setdefault(id(act.anchor), []).extend(post)
        # message aggregation (§5.4): same guard + same destination at
        # the same point -> one packed message; then order sends ahead
        # of receives within each message run (sends never block, so
        # send-first is always deadlock-free)
        from .codegen import aggregate_messages, order_sends_first

        for sid in list(rw.insert_before):
            rw.insert_before[sid] = order_sends_first(
                aggregate_messages(rw.insert_before[sid])
            )
        # run-time resolution rewrites
        from .codegen import rtr_rewrite_if

        rtr_sids = set(plan.rtr_stmts) | set(comm.rtr_stmts)
        for s in A.walk_stmts(self.proc.body):
            if id(s) not in rtr_sids:
                continue
            if isinstance(s, A.Assign):
                rw.replace[id(s)] = rtr_rewrite_assign(
                    s, distributed, self.tags
                )
                rw.guard_stmt.pop(id(s), None)
            elif isinstance(s, A.If):
                for anc in A.ancestors(self.proc.body, s):
                    if id(anc) in plan.loop_reduce \
                            or id(anc) in rw.guard_stmt:
                        raise CompileError(
                            f"{self.proc.name}: a branch condition reads "
                            f"distributed data inside a partitioned loop "
                            f"— not compilable (restructure the branch)"
                        )
                rw.insert_before.setdefault(id(s), []).extend(
                    rtr_rewrite_if(s, distributed, self.tags)
                )
        # INTRA: the procedure-uniform constraint was not exported; it is
        # already guarded by plan_blocks (export disabled in that mode)
        self.proc.body = rewrite_body(self.proc.body, rw)
        ensure_myproc(self.proc)

    def _uniform_guard(self, plan: PartitionPlan) -> Optional[Constraint]:
        cs = {c for c in plan.guard_stmt.values() if c is not None}
        uniq = {(c.dimdist, c.var, c.off) for c in cs}
        if len(uniq) == 1:
            return next(iter(cs))
        return None

    # -- RTR mode ----------------------------------------------------------------

    def _compile_rtr(self, arrays, rtr_arrays) -> ProcExports:
        rw = RewritePlan()
        distributed = {
            n for n, i in arrays.items()
            if i.distributed or n in rtr_arrays
        }
        # dynamic decompositions become unconditional physical remaps
        for s in A.walk_stmts(self.proc.body):
            if isinstance(s, A.Distribute) and not (
                self.is_main and _in_prologue(self.proc, s)
            ):
                changed = _distribute_targets(self.proc, s, arrays)
                repl = [A.Remap(arr, list(s.specs), comment="rtr dynamic")
                        for arr in changed]
                rw.replace[id(s)] = repl
                self.report.remaps_emitted += len(repl)
            elif isinstance(s, A.Assign):
                reads_dist = any(
                    isinstance(r, A.ArrayRef) and r.name in distributed
                    for r in A.walk_exprs(s.expr)
                )
                writes_dist = (
                    isinstance(s.target, A.ArrayRef)
                    and s.target.name in distributed
                )
                if reads_dist or writes_dist:
                    rw.replace[id(s)] = rtr_rewrite_assign(
                        s, distributed, self.tags
                    )
            elif isinstance(s, A.If):
                from .codegen import rtr_rewrite_if

                if any(isinstance(r, A.ArrayRef) and r.name in distributed
                       for r in A.walk_exprs(s.cond)):
                    rw.insert_before.setdefault(id(s), []).extend(
                        rtr_rewrite_if(s, distributed, self.tags)
                    )
        self.proc.body = rewrite_body(self.proc.body, rw)
        ensure_myproc(self.proc)
        return ProcExports(self.proc.name)

    # -- overlaps ------------------------------------------------------------------

    def _overlaps(self, comm, arrays) -> dict[str, list[tuple[int, int]]]:
        out: dict[str, list[tuple[int, int]]] = {}
        for act in comm.actions:
            p = act.pending
            if p.kind != "shift":
                continue
            offs = out.setdefault(
                p.array, [(0, 0)] * p.section.rank
            )
            lo, hi = offs[p.axis]
            if p.delta > 0:
                offs[p.axis] = (lo, max(hi, p.delta))
            else:
                offs[p.axis] = (min(lo, p.delta), hi)
        for arr, offs in out.items():
            self.report.overlaps[(self.proc.name, arr)] = offs
        return out


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _in_prologue(proc: A.Procedure, stmt: A.Stmt) -> bool:
    """True when *stmt* sits in the leading directive-only prefix of the
    procedure body (the static data-placement prologue)."""
    for s in proc.body:
        if s is stmt:
            return True
        if not isinstance(s, (A.Decomposition, A.Align, A.Distribute)):
            return False
    return False


def _distribute_targets(proc, stmt, arrays) -> list[str]:
    from .reaching import build_directive_table

    table = build_directive_table(proc)
    try:
        return [a for a in table.resolve_distribute(stmt) if a in arrays]
    except ValueError:
        return []


def _sanitize_summaries(
    summaries: dict[str, list], proc: A.Procedure, arrays
) -> dict[str, list]:
    """Keep only summaries on formal arrays whose dimension expressions
    are caller-translatable (formals/params only); opaque local values
    are renamed to fresh symbols so caller-side dependence analysis stays
    conservative rather than wrong."""
    from ..analysis.rsd import RSD, Range, SymDim
    from ..analysis.symbolics import free_vars

    ok_names = set(proc.formals) | {p.name for p in proc.params} \
        | set(proc.commons)
    out: dict[str, list] = {}
    counter = [0]

    def sanitize_dim(d):
        if isinstance(d, Range):
            return d
        names = free_vars(d.lo) | (free_vars(d.hi) if d.hi else set())
        if names <= ok_names:
            return d
        counter[0] += 1
        return SymDim(A.Var(f"$opaque{counter[0]}"))

    interface_arrays = set(proc.formals) | set(proc.commons)
    for arr, secs in summaries.items():
        if arr not in interface_arrays:
            continue
        out[arr] = [RSD(tuple(sanitize_dim(d) for d in s.dims)) for s in secs]
    return out


# ---------------------------------------------------------------------------
# whole-program driver
# ---------------------------------------------------------------------------


def compile_program(
    source: Union[str, A.Program],
    opts: Optional[Options] = None,
    trace=None,
) -> CompiledProgram:
    """Compile Fortran D source (or a parsed Program) to an SPMD node
    program for ``opts.nprocs`` processors.

    Every call returns a fresh :class:`CompiledProgram`; reuse happens
    per procedure below it (the parser's unit memo, codegen's unit
    memo and disk cache), so a repeat compile costs a warm sweep.
    *trace* optionally supplies a :class:`~repro.obs.Tracer` (or
    ``True``) recording per-phase timings and compilation decisions
    (:func:`trace_decisions`).
    """
    opts = opts or Options()
    tracer = resolve_trace(trace)
    span = _spans(tracer)
    with span("compile", mode=opts.mode.value, nprocs=opts.nprocs):
        compiled = assemble(sweep(source, opts, tracer=tracer), opts,
                            shared=False)
    with span("emit-node-program", nprocs=opts.nprocs):
        _resolve_codegen(compiled)
    return compiled


def front_end(
    source: Union[str, A.Program], opts: Options, tracer=None
):
    """The compiler front end shared by the whole-program driver and the
    compile service: the paper's phases 1 and 2 — local summaries (per
    unit text, memoised: :func:`~repro.lang.parse_summaries`), then
    interprocedural analysis (cloning + reaching decompositions) and the
    §6.4 alias check.  Returns ``(prog, acg, reaching, report)`` with
    the report seeded with cloning outcomes; ``acg`` carries the local
    summaries of the units still as parsed.  Deterministic: every
    process running it over the same source and options reconstructs
    identical structures."""
    span = _spans(tracer)
    with span("parse"):
        if isinstance(source, str):
            summaries = parse_summaries(source)
            prog = A.Program([s.tree() for s in summaries])
            local = {s.name: s for s in summaries}
            if len(local) < len(summaries):  # duplicate unit names
                local = {}
        else:
            prog, local = _deep_copy(source), {}
    if opts.distribute:
        # plan overrides rewrite DISTRIBUTE statements *before* any
        # analysis, so every downstream fact (reaching decompositions,
        # fingerprints) sees the overridden layout
        with span("distribution-overrides"):
            for name in apply_dist_overrides(prog, opts.distribute):
                local.pop(name, None)
    report = CompileReport(mode=opts.mode, nprocs=opts.nprocs)

    with span("interprocedural-analysis"):
        if opts.mode in (Mode.INTER, Mode.INTRA):
            outcome = clone_program(prog, opts, local)
            prog, acg, reaching = \
                outcome.program, outcome.acg, outcome.reaching
            report.cloned = outcome.clones
            if outcome.growth_capped:
                report.note("cloning disabled: growth threshold exceeded")
        else:
            acg = ACG(prog, local)
            reaching = compute_reaching(acg, opts)

    # §6.4: dynamic decomposition of aliased variables is rejected
    from ..analysis.aliasing import (
        check_dynamic_decomposition,
        compute_aliases,
    )

    with span("alias-analysis"):
        check_dynamic_decomposition(acg, compute_aliases(acg))
    return prog, acg, reaching, report


def compile_procedure_unit(
    proc: A.Procedure,
    inputs: ProcInputs,
    opts: Options,
    report: CompileReport,
    tags: TagAllocator,
    is_main: bool,
) -> ProcExports:
    """Compile one procedure of the reverse-topological sweep, with the
    paper's graceful degradation: a failed compile-time analysis demotes
    the procedure to run-time resolution instead of aborting (unless
    ``opts.strict``).  Mutates *proc* in place and appends to *report*;
    returns the procedure's exports.  Reached through
    :func:`compile_one`."""
    pc = ProcedureCompiler(proc, inputs, opts, report, tags, is_main)
    if opts.strict:
        return pc.compile()
    try:
        return pc.compile()
    except (CompileError, UnsupportedSubscript) as e:
        # Graceful degradation (§1, §4): instead of aborting on an
        # unanalyzable construct, demote this one procedure to the
        # run-time-resolution path — per-reference ownership tests and
        # on-demand element messages need no analysis.  All
        # compile-phase failures raise *before* the body rewrite, so
        # the procedure is still pristine source here; it exports
        # nothing, which callers already treat conservatively.
        return _demote_to_rtr(proc, e, inputs, opts, report, tags, is_main)


#: statement types carrying allocator-issued message tags (tag > 0 iff
#: the allocator issued it; tags only affect runtime message matching,
#: never printed text)
_TAGGED = (A.Send, A.Recv, A.SendPack, A.RecvPack, A.Bcast,
           A.GlobalReduce)


def _spans(tracer):
    """``span(name, **fields)``: a tracer phase, or nothing untraced."""
    if tracer is None:
        return lambda name, **fields: nullcontext()
    return tracer.phase


def compile_one(proc: A.Procedure, inputs: ProcInputs, opts: Options,
                is_main: bool) -> ProcSummary:
    """Compile *proc* (in place) with a private tag allocator and a
    private report fragment: everything its compilation leaves behind,
    independent of what was compiled before it — a pure function of its
    tree and its :class:`~repro.core.recompile.ProcInputs`, whose
    decisions are the fragment.  The one path to
    :func:`compile_procedure_unit` — the sweep and the service's
    workers both go through here."""
    tags = TagAllocator()
    frag = CompileReport(mode=opts.mode, nprocs=opts.nprocs)
    exp = compile_procedure_unit(proc, inputs, opts, frag, tags, is_main)
    return ProcSummary(proc.name, proc, exp, tags.next - 1, frag)


@dataclass
class Swept:
    """The pieces :func:`sweep` leaves for :func:`assemble` — everything
    a compiled program is made of, not yet joined."""

    #: the program's units, in source order
    units: list[str]
    #: reverse topological order: the order of assembly
    order: list[str]
    #: each procedure's §8 store key (empty without a store)
    keys: dict[str, object]
    summaries: dict[str, ProcSummary]
    #: the front end's report; the fragments are merged into it
    report: CompileReport
    initial_dists: dict[tuple[str, str], Distribution]
    reused: list[str] = field(default_factory=list)
    recompiled: list[str] = field(default_factory=list)


#: shared-assembly activity (tests and the service client's
#: ``client_stats()`` read it): procedure texts printed by
#: :meth:`Piece.text`
ASSEMBLY_COUNTS = {"procs_printed": 0}


class Piece:
    """A shared summary's body renumbered by one tag base, and its text
    once printed — memoised on the summary
    (:meth:`~repro.core.recompile.ProcSummary.pieces`) and shared by
    every program assembled from it, so the tree is read-only."""

    __slots__ = ("proc", "_text")

    def __init__(self, proc: A.Procedure) -> None:
        self.proc = proc
        self._text: Optional[str] = None

    def text(self) -> str:
        if self._text is None:
            self._text = procedure_str(self.proc)
            ASSEMBLY_COUNTS["procs_printed"] += 1
        return self._text


def assemble(swept: Swept, opts: Options, *, shared: bool) -> CompiledProgram:
    """The one assembly: splice the procedure bodies into one program,
    shifting each private tag block by the running total and merging
    the report fragments, both in reverse topological order — the
    numbering and report of one shared allocator, whichever procedures
    were reused, compiled elsewhere or shipped.  *shared* summaries
    outlive the call (a store's, a client cache's): a body is renumbered
    in a copy once per tag base (once in all if it has no tags), and the
    copy (a :class:`Piece`) is reused by every later assembly at that
    base."""
    pieces: dict[str, Piece] = {}
    base = 0
    for name in swept.order:
        s = swept.summaries[name]
        memo = s.pieces() if shared else {}
        at = base if s.tag_count else 0
        piece = memo.get(at)
        if piece is None:
            proc = A.clone_procedure(s.proc) if shared else s.proc
            if at:
                for st in A.walk_stmts(proc.body):
                    if isinstance(st, _TAGGED) and st.tag > 0:
                        st.tag += base
            piece = memo.setdefault(at, Piece(proc))
        pieces[name] = piece
        base += s.tag_count
        swept.report.merge(s.fragment)
    program = A.Program([pieces[name].proc for name in swept.units])
    if any(u.kind == "function" for u in program.units):
        # raises when a function reference reaches a procedure the
        # compiler placed communication in (or in a callee of)
        find_blocking_units(program)
        _refuse_distributed_function_reads(program,
                                          swept.report.distributions)
    return CompiledProgram(
        program, swept.initial_dists, swept.report, opts,
        [pieces[name] for name in swept.units] if shared else None)


def _refuse_distributed_function_reads(
        program: A.Program, distributions: dict[str, dict[str, str]]
) -> None:
    """A function reference adds no ACG edge, so the compiler places no
    communication for the distributed data a function reads and every
    rank would read its own stale copy.  Until the ACG carries function
    edges, a reference passing a distributed array, or to a function
    that (itself or through its callees) uses a distributed COMMON
    array, is a :class:`CompileError`."""
    def distributed(unit: str, name: str) -> bool:
        return distributions.get(unit, {}).get(name, "replicated") \
            != "replicated"

    common = {name for u in program.units for name in u.commons
              if any(distributed(v.name, name) for v in program.units)}
    #: per unit: the units it calls or references, the distributed
    #: COMMON arrays it uses
    calls: dict[str, set[str]] = {}
    uses: dict[str, set[str]] = {}
    for u in program.units:
        calls[u.name] = {s.name for s in A.walk_stmts(u.body)
                         if isinstance(s, A.Call)}
        uses[u.name] = set()
        for e in A.walk_all_exprs(u.body):
            if isinstance(e, A.FuncRef):
                calls[u.name].add(e.name)
            elif isinstance(e, (A.Var, A.ArrayRef)) \
                    and e.name in common and e.name in u.commons:
                uses[u.name].add(e.name)

    def common_use(fn: str) -> Optional[str]:
        seen, todo = set(), [fn]
        while todo:
            name = todo.pop()
            if name in seen or name not in uses:
                continue
            seen.add(name)
            if uses[name]:
                return min(uses[name])
            todo.extend(calls[name])
        return None

    for u in program.units:
        for e in A.walk_all_exprs(u.body):
            if not isinstance(e, A.FuncRef):
                continue
            arrays = [a.name for a in e.args if isinstance(a, A.Var)
                      and distributed(u.name, a.name)]
            if arrays:
                raise CompileError(
                    f"{u.name}: function {e.name!r} reads distributed "
                    f"array {arrays[0]!r}; restructure as a CALL "
                    f"statement")
            shared = common_use(e.name)
            if shared is not None:
                raise CompileError(
                    f"{u.name}: function {e.name!r} reads distributed "
                    f"COMMON array {shared!r}; restructure as a CALL "
                    f"statement")


def sweep(
    source: Union[str, A.Program],
    opts: Options,
    store=None,
    tracer=None,
    compile_wave=None,
    checkpoint=None,
) -> Swept:
    """The paper's single pass (§4, §7, §8; docs/compiler.md
    § Recompilation): front end, then the procedures in reverse
    topological *waves*.  Returns the pieces; :func:`assemble` joins
    them.

    A procedure is ready once its callees are resolved.  With a *store*
    (``key(opts_fp, src_fp, in_fp)``, ``load(key)``, ``store(key,
    summary)``) a ready procedure whose §8 key — options, source and
    interprocedural-inputs fingerprints — is stored is reused; the rest
    of the wave, mutually independent, goes through :func:`compile_one`.

    The compile service's two differences are per-call callables:
    ``compile_wave(wave)`` returns ``{name: ProcSummary}`` for a wave
    compiled elsewhere (None: compile it here), *wave* holding each
    dirty procedure's :func:`compile_one` arguments — its pristine tree,
    its :class:`~repro.core.recompile.ProcInputs` and whether it is the
    main program; ``checkpoint()`` runs on entry, per wave and before
    each local compile, and may raise to abandon the compile.
    """
    span = _spans(tracer)
    checkpoint = checkpoint or (lambda: None)
    checkpoint()
    prog, acg, reaching, report = front_end(source, opts, tracer)
    # initial (static prologue) distributions of the main program
    with span("initial-distributions"):
        initial = _initial_distributions(prog, reaching, opts)

    order = acg.reverse_topological_order()
    main_name = prog.main.name
    # plan-invariant on purpose: distribution overrides rewrite the
    # program before fingerprinting, so sibling tuning plans share
    # summaries of untouched procedures (see store_opts_fingerprint)
    opts_fp = store_opts_fingerprint(opts) if store is not None else None
    resolved: dict[str, ProcSummary] = {}
    keys: dict[str, object] = {}
    reused: list[str] = []
    recompiled: list[str] = []
    with span("codegen"):
        pending = list(order)
        while pending:
            checkpoint()
            ready = [
                n for n in pending
                if all(site.callee in resolved
                       for site in acg.calls_from(n))
            ]
            if not ready:  # pragma: no cover - ACG rejects recursion
                raise CompileError(
                    f"call-graph cycle among {sorted(pending)}")
            exports = {n: s.exports for n, s in resolved.items()}
            inputs = {n: proc_inputs(n, acg, reaching, exports)
                      for n in ready}
            dirty = []
            for n in ready:
                if store is not None:
                    keys[n] = store.key(
                        opts_fp, unit_fingerprint(acg, n),
                        inputs_fingerprint(inputs[n], opts))
                    hit = store.load(keys[n])
                    if hit is not None and hit.name == n:
                        resolved[n] = hit
                        reused.append(n)
                        if tracer is not None:
                            tracer.decision("summary-reuse", proc=n)
                        continue
                dirty.append(n)
            wave = [(prog.unit(n), inputs[n], n == main_name) for n in dirty]
            got = compile_wave(wave) \
                if compile_wave is not None and wave else None
            if got is None:
                got = {}
                for proc, record, is_main in wave:
                    checkpoint()
                    with span("procedure", proc=proc.name):
                        got[proc.name] = compile_one(proc, record, opts,
                                                     is_main)
            for n in dirty:
                resolved[n] = got[n]
                if store is not None:
                    store.store(keys[n], got[n])
            recompiled += dirty
            pending = [n for n in pending if n not in resolved]
    swept = Swept(prog.names(), order, keys, resolved, report, initial,
                  reused, recompiled)
    trace_decisions(swept, opts, tracer)
    return swept


def trace_decisions(swept: Swept, opts: Options, tracer) -> None:
    """Trace a compile's decisions as ``compile.decision`` events, read
    from its report — the one record of them, so a procedure's
    decisions are the same whether it was compiled here, reused from a
    store, compiled by a worker or shipped by the daemon.  In order:
    the options' distribution overrides, the front end's clones and
    notes, then each procedure's fragment in reverse topological order.
    Called at the end of :func:`sweep` and by the service client on an
    unpacked reply, before :func:`assemble` merges the fragments."""
    if tracer is None:
        return
    decide = tracer.decision
    for ov in opts.distribute:
        decide("dist-override", spec=ov.describe())
    for base, clones in sorted(swept.report.cloned.items()):
        decide("clone", base=base, clones=", ".join(clones))
    for text in swept.report.notes:
        decide("note", text=text)
    for name in swept.order:
        frag = swept.summaries[name].fragment
        for arr, dist in sorted(frag.distributions.get(name, {}).items()):
            decide("distribution", proc=name, array=arr, dist=dist)
        # the event's own "kind" is compile.decision: the site's is
        # comm_kind
        for line, (_, arr, kind) in zip(frag.comm_placements,
                                        frag.comm_sites):
            decide("comm-placement", proc=name, array=arr, comm_kind=kind,
                   line=line)
        for line in frag.rtr_fallbacks:
            decide("rtr-fallback", proc=name, line=line)
        for line in frag.rtr_demotions:
            decide("rtr-demotion", proc=name, line=line)


def _resolve_codegen(compiled: CompiledProgram) -> None:
    """Emit (or find in the unit memo or on disk) every procedure's
    node-program text for the environment-default execution options,
    so the first run only loads them.  Emission is total: a
    :class:`~repro.codegen.CodegenError` here is an internal error."""
    from ..codegen import get_generated

    settings = Settings.from_env()
    if settings.codegen:
        get_generated(compiled.program, compiled.opts.nprocs,
                      settings.vectorize, load=False)


def _demote_to_rtr(
    proc, err, inputs, opts, report, tags, is_main,
) -> ProcExports:
    """Compile *proc* with run-time resolution after its compile-time
    analysis failed with *err* (Options.strict=False)."""
    name = proc.name
    cause = str(err)
    if cause.startswith(f"{name}: "):  # many errors already name the proc
        cause = cause[len(name) + 2:]
    why = f"{name}: demoted to run-time resolution ({cause})"
    report.rtr_demotions.append(f"{name}: {cause}")
    if why not in report.rtr_fallbacks:
        report.rtr_fallbacks.append(why)
    pc = ProcedureCompiler(proc, inputs, opts, report, tags, is_main)
    arrays, rtr_arrays = resolve_arrays(proc, inputs.reaching, opts)
    return pc._compile_rtr(arrays, rtr_arrays)


def _deep_copy(prog: A.Program) -> A.Program:
    return A.Program([A.clone_procedure(u) for u in prog.units])


def _initial_distributions(
    prog: A.Program, reaching: ReachingResult, opts: Options
) -> dict[tuple[str, str], Distribution]:
    """Distributions of main's arrays established by the static placement
    prologue (these become the arrays' creation-time distributions; no
    data motion is needed because arrays start uninitialized)."""
    main = prog.main
    pr = reaching.per_proc[main.name]
    out: dict[tuple[str, str], Distribution] = {}
    for d in main.decls:
        if not d.is_array:
            continue
        dists = {
            x for x in pr.reaching_dists(d.name)
            if isinstance(x, Distribution)
        }
        if len(dists) == 1:
            dist = next(iter(dists))
            if not dist.is_replicated:
                out[(main.name, d.name)] = dist
        elif len(dists) > 1:
            # dynamic redistribution: the creation-time distribution is
            # the one reaching the first use (approximated by the one
            # generated in the prologue)
            proto = _prologue_distribution(main, d.name, pr, opts)
            if proto is not None:
                out[(main.name, d.name)] = proto
    return out


def _prologue_distribution(main, name, pr, opts) -> Optional[Distribution]:
    """The distribution of *name* established by the static placement
    prologue: the unique fact reaching the first executable statement."""
    for s in main.body:
        if isinstance(s, (A.Decomposition, A.Align, A.Distribute)):
            continue
        facts = pr.facts_at(s)
        if facts:
            dists = {d for (n, d) in facts
                     if n == name and isinstance(d, Distribution)}
            if len(dists) == 1:
                return next(iter(dists))
        return None
    return None
