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
from dataclasses import dataclass
from typing import Optional, Union

from ..analysis.symbolics import affine_of, eval_const
from ..callgraph.acg import ACG
from ..dist import Distribution
from ..interp.interpreter import SPMDResult, run_spmd
from ..lang import ast as A
from ..lang import parse, program_str
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
    ProcSummary,
    inputs_fingerprint,
    source_fingerprint,
    store_opts_fingerprint,
)


@dataclass
class CompiledProgram:
    """A compiled SPMD node program plus everything needed to run it."""

    program: A.Program
    initial_dists: dict[tuple[str, str], Distribution]
    report: CompileReport
    opts: Options

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
        :func:`~repro.interp.interpreter.run_spmd`'s, and with
        ``Options.strict`` any codegen demotion is a hard error."""
        from ..interp.interpreter import default_init

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
            codegen_strict=self.opts.strict,
            metrics=metrics,
        )

    def text(self) -> str:
        """The generated node program, Figure-2/10-style."""
        return program_str(self.program)

    def explain(self) -> str:
        """Human-readable compilation narrative: distributions chosen,
        clones created, communication placements, remap optimization
        counts, overlaps, and any run-time-resolution fallbacks."""
        r = self.report
        lines = [
            f"mode={r.mode.value} nprocs={r.nprocs}",
            "",
            "data partitioning:",
        ]
        for proc, dists in sorted(r.distributions.items()):
            for arr, d in sorted(dists.items()):
                lines.append(f"  {proc}.{arr}: {d}")
        if r.cloned:
            lines.append("")
            lines.append("procedure cloning:")
            for base, clones in sorted(r.cloned.items()):
                lines.append(f"  {base} -> {base}, {', '.join(clones)}")
        if r.comm_placements:
            lines.append("")
            lines.append("communication:")
            for c in r.comm_placements:
                lines.append(f"  {c}")
        if r.remaps_emitted or r.remaps_eliminated or r.remaps_hoisted \
                or r.remaps_marked:
            lines.append("")
            lines.append(
                f"dynamic decomposition: emitted={r.remaps_emitted} "
                f"eliminated={r.remaps_eliminated} "
                f"hoisted={r.remaps_hoisted} marked={r.remaps_marked}"
            )
        if r.overlaps:
            lines.append("")
            lines.append("overlap regions:")
            for (proc, arr), offs in sorted(r.overlaps.items()):
                lines.append(f"  {proc}.{arr}: {offs}")
        if r.rtr_fallbacks:
            lines.append("")
            lines.append("run-time resolution fallbacks:")
            for f in r.rtr_fallbacks:
                lines.append(f"  {f}")
        if r.rtr_demotions:
            lines.append("")
            lines.append("procedures demoted to run-time resolution:")
            for d in r.rtr_demotions:
                lines.append(f"  {d}")
        return "\n".join(lines)


class ProcedureCompiler:
    """Compiles one procedure in the reverse-topological sweep."""

    def __init__(
        self,
        proc: A.Procedure,
        acg: ACG,
        reaching: ReachingResult,
        opts: Options,
        callee_exports: dict[str, ProcExports],
        report: CompileReport,
        tags: TagAllocator,
        is_main: bool,
        tracer=None,
    ) -> None:
        self.proc = proc
        self.acg = acg
        self.reaching = reaching
        self.opts = opts
        self.callee_exports = callee_exports
        self.report = report
        self.tags = tags
        self.is_main = is_main
        self.tracer = tracer
        env = dict(_param_env(proc))
        consts = getattr(reaching, "constants", None) or {}
        env.update(consts.get(proc.name, {}))
        self.env = env

    # ------------------------------------------------------------------

    def _decide(self, name: str, **fields) -> None:
        """Record a compilation decision when tracing is enabled."""
        if self.tracer is not None:
            self.tracer.decision(name, **fields)

    def compile(self) -> ProcExports:
        proc, opts = self.proc, self.opts
        pr = self.reaching.per_proc[proc.name]
        arrays, rtr_arrays = resolve_arrays(proc, pr, opts)
        self.report.distributions[proc.name] = {
            n: (str(i.dist) if i.dist else "replicated")
            for n, i in arrays.items()
        }
        for n, d in sorted(self.report.distributions[proc.name].items()):
            self._decide("distribution", proc=proc.name, array=n, dist=d)
        for n, why in rtr_arrays.items():
            self.report.rtr_fallbacks.append(f"{proc.name}.{n}: {why}")
            self._decide("rtr-fallback", proc=proc.name,
                         why=f"{n}: {why}")

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
                proc, self.acg, arrays, plan, opts,
                self.callee_exports, self.env, self.is_main,
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
                self._decide("rtr-fallback", proc=proc.name, why=why)
        else:  # pragma: no cover - the fixpoint always terminates
            raise CompileError(f"{proc.name}: partition planning diverged")

        dyn = DynamicDecompPlanner(
            proc, self.acg, arrays, opts, self.callee_exports, self.env,
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
            self._decide("comm-placement", proc=proc.name, level=act.level,
                         placement=act.pending.describe())
        return exports

    # -- constraints ------------------------------------------------------

    def _assign_constraints(self, plan: PartitionPlan) -> None:
        site_of = {id(s.stmt): s for s in self.acg.calls_from(self.proc.name)}
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
                        self._decide("rtr-fallback", proc=self.proc.name,
                                     why=why)
            elif isinstance(s, A.Call):
                site = site_of.get(sid)
                if site is None:
                    continue
                exp = self.callee_exports.get(site.callee)
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
            for anc in _ancestors_of(self.proc.body, spec.loop):
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
            for anc in _ancestors_of(self.proc.body, act.anchor):
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
                for anc in _ancestors_of(self.proc.body, s):
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


def _param_env(proc: A.Procedure) -> dict:
    env: dict = {}
    for p in proc.params:
        v = eval_const(p.value, env)
        if v is not None:
            env[p.name] = v
    return env


def _ancestors_of(body: list[A.Stmt], target: A.Stmt) -> list[A.Stmt]:
    def find(b):
        for s in b:
            if s is target:
                return []
            for blk in A.child_blocks(s):
                sub = find(blk)
                if sub is not None:
                    return [s] + sub
        return None

    return find(body) or []


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
    ``True``) recording per-phase timings and compilation decisions.
    """
    opts = opts or Options()
    tracer = resolve_trace(trace)
    span = _spans(tracer)
    with span("compile", mode=opts.mode.value, nprocs=opts.nprocs):
        compiled = sweep(source, opts, tracer=tracer)[0]
    with span("emit-node-program", nprocs=opts.nprocs):
        _prewarm_codegen(compiled, tracer)
    return compiled


def front_end(
    source: Union[str, A.Program], opts: Options, tracer=None
):
    """The compiler front end shared by the whole-program driver and the
    compile service: parse, interprocedural analysis (cloning + reaching
    decompositions), and the §6.4 alias check.  Returns ``(prog, acg,
    reaching, report)`` with the report seeded with cloning outcomes.
    Deterministic: every process running it over the same source and
    options reconstructs identical structures."""
    span = _spans(tracer)
    with span("parse"):
        prog = parse(source) if isinstance(source, str) \
            else _deep_copy(source)
    if opts.distribute:
        # plan overrides rewrite DISTRIBUTE statements *before* any
        # analysis, so every downstream fact (reaching decompositions,
        # fingerprints, worker re-runs) sees the overridden layout
        with span("distribution-overrides"):
            apply_dist_overrides(prog, opts.distribute)
            if tracer is not None:
                for ov in opts.distribute:
                    tracer.decision("dist-override", spec=ov.describe())
    report = CompileReport(mode=opts.mode, nprocs=opts.nprocs)

    with span("interprocedural-analysis"):
        if opts.mode in (Mode.INTER, Mode.INTRA):
            outcome = clone_program(prog, opts)
            prog, acg, reaching = \
                outcome.program, outcome.acg, outcome.reaching
            report.cloned = outcome.clones
            if outcome.growth_capped:
                report.note("cloning disabled: growth threshold exceeded")
                if tracer is not None:
                    tracer.decision("clone-growth-capped")
            if tracer is not None:
                for base, clones in sorted(report.cloned.items()):
                    tracer.decision("clone", base=base,
                                    clones=", ".join(clones))
        else:
            acg = ACG(prog)
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
    prog: A.Program,
    name: str,
    acg: ACG,
    reaching: ReachingResult,
    opts: Options,
    exports: dict[str, ProcExports],
    report: CompileReport,
    tags: TagAllocator,
    main_name: str,
    tracer=None,
) -> ProcExports:
    """Compile one procedure of the reverse-topological sweep, with the
    paper's graceful degradation: a failed compile-time analysis demotes
    the procedure to run-time resolution instead of aborting (unless
    ``opts.strict``).  Mutates ``prog.unit(name)`` in place and appends
    to *report*; returns the procedure's exports.  Reached through
    :func:`compile_one`."""
    pc = ProcedureCompiler(
        prog.unit(name), acg, reaching, opts, exports, report,
        tags, is_main=(name == main_name), tracer=tracer,
    )
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
        return _demote_to_rtr(
            name, e, prog, acg, reaching, opts, exports,
            report, tags, main_name, tracer,
        )


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


def compile_one(prog, name, acg, reaching, opts, exports, main_name,
                tracer=None) -> ProcSummary:
    """Compile procedure *name* (in place) with a private tag allocator
    and a private report fragment: everything its compilation leaves
    behind, independent of what was compiled before it.  The one path
    to :func:`compile_procedure_unit` — the sweep and the service's
    workers both go through here."""
    tags = TagAllocator()
    frag = CompileReport(mode=opts.mode, nprocs=opts.nprocs)
    exp = compile_procedure_unit(
        prog, name, acg, reaching, opts, exports, frag, tags,
        main_name, tracer,
    )
    return ProcSummary(name, prog.unit(name), exp, tags.next - 1, frag)


def sweep(
    source: Union[str, A.Program],
    opts: Options,
    store=None,
    tracer=None,
    compile_wave=None,
    checkpoint=None,
) -> tuple[CompiledProgram, list[str], list[str]]:
    """The paper's single pass (§4, §7, §8; docs/compiler.md
    § Recompilation): front end, the procedures in reverse topological
    *waves*, assembly.  Returns ``(compiled, reused, recompiled)``.

    A procedure is ready once its callees are resolved.  With a *store*
    (``key(opts_fp, src_fp, in_fp)``, ``load(key)``, ``store(key,
    summary)``) a ready procedure whose §8 key — options, source and
    interprocedural-inputs fingerprints — is stored is reused; the rest
    of the wave, mutually independent, goes through :func:`compile_one`.
    Assembly splices the bodies back in reverse topological order,
    shifting each private tag block by the running total and merging
    the report fragments: the numbering and report of one shared
    allocator, whichever procedures were reused or compiled elsewhere.

    The compile service's two differences are per-call callables:
    ``compile_wave(dirty, exports, prog, acg, reaching, main_name)``
    returns ``{name: ProcSummary}`` for a wave compiled elsewhere (None:
    compile it here); ``checkpoint()`` runs on entry, per wave and
    before each local compile, and may raise to abandon the compile.
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
            keys: dict[str, object] = {}
            dirty = []
            for n in ready:
                if store is not None:
                    keys[n] = store.key(
                        opts_fp, source_fingerprint(prog.unit(n)),
                        inputs_fingerprint(n, acg, reaching, exports,
                                           opts))
                    hit = store.load(keys[n])
                    if hit is not None and hit.name == n:
                        resolved[n] = hit
                        reused.append(n)
                        if tracer is not None:
                            tracer.decision("summary-reuse", proc=n)
                        continue
                dirty.append(n)
            got = compile_wave(
                dirty, exports, prog, acg, reaching, main_name
            ) if compile_wave is not None and dirty else None
            if got is None:
                got = {}
                for n in dirty:
                    checkpoint()
                    with span("procedure", proc=n):
                        got[n] = compile_one(
                            prog, n, acg, reaching, opts, exports,
                            main_name, tracer)
            for n in dirty:
                resolved[n] = got[n]
                if store is not None:
                    store.store(keys[n], got[n])
            recompiled += dirty
            pending = [n for n in pending if n not in resolved]

        base = 0
        for name in order:
            s = resolved[name]
            # a stored summary outlives this compilation: renumber a copy
            proc = A.clone_procedure(s.proc) if store is not None \
                else s.proc
            if base:
                for st in A.walk_stmts(proc.body):
                    if isinstance(st, _TAGGED) and st.tag > 0:
                        st.tag += base
            base += s.tag_count
            prog.units[prog.units.index(prog.unit(name))] = proc
            report.merge(s.fragment)
    return CompiledProgram(prog, initial, report, opts), reused, recompiled


def _prewarm_codegen(compiled: CompiledProgram, tracer=None) -> None:
    """Generate (or load from cache) the node-program modules for the
    environment-default execution options, so the first run doesn't pay
    for generation.  Under ``Options.strict`` a codegen demotion is a
    compile error; otherwise every failure here is soft — ``run_spmd``
    regenerates on demand and demotes to the interpreter."""
    from ..codegen import CodegenError, get_generated

    settings = Settings.from_env()
    if not settings.codegen:
        return
    try:
        gen, _, _ = get_generated(
            compiled.program, compiled.opts.nprocs, settings.vectorize,
            strict=compiled.opts.strict,
        )
    except CodegenError as e:
        raise CompileError(str(e)) from None
    except Exception:  # pragma: no cover - cache/emit trouble is soft
        return
    if tracer is not None:
        for cls, variant, proc, cause in gen.demotions:
            tracer.decision("codegen-demotion", proc=proc, rank_class=cls,
                            variant=variant, cause=cause)


def _demote_to_rtr(
    name, err, prog, acg, reaching, opts, exports, report,
    tags, main_name, tracer=None,
) -> ProcExports:
    """Compile procedure *name* with run-time resolution after its
    compile-time analysis failed with *err* (Options.strict=False)."""
    cause = str(err)
    if cause.startswith(f"{name}: "):  # many errors already name the proc
        cause = cause[len(name) + 2:]
    why = f"{name}: demoted to run-time resolution ({cause})"
    report.rtr_demotions.append(f"{name}: {cause}")
    if why not in report.rtr_fallbacks:
        report.rtr_fallbacks.append(why)
    if tracer is not None:
        tracer.decision("rtr-demotion", proc=name, cause=cause)
    proc = prog.unit(name)
    pr = reaching.per_proc[name]
    pc = ProcedureCompiler(
        proc, acg, reaching, opts, exports, report, tags,
        is_main=(name == main_name), tracer=tracer,
    )
    arrays, rtr_arrays = resolve_arrays(proc, pr, opts)
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
        facts = pr.at_stmt.get(id(s))
        if facts:
            dists = {d for (n, d) in facts
                     if n == name and isinstance(d, Distribution)}
            if len(dists) == 1:
                return next(iter(dists))
        return None
    return None
