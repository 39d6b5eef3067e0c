"""Reaching decompositions (§5.2, Figures 6-7).

The compiler must know the data decomposition of every array at every
reference.  Locally this is a reaching-definitions-style forward problem
(each DISTRIBUTE is a "definition" of the arrays it affects);
interprocedurally it is solved in **one top-down pass** because Fortran D
scoping guarantees a callee's redistributions are undone on return, so a
procedure's reaching decompositions depend only on its callers.

Facts are ``(array name, Distribution | TOP)`` pairs; ``TOP`` is the
placeholder for "inherited from caller" that interprocedural propagation
later expands (the ``<⊤, V>`` elements of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..analysis.constants import local_param_env
from ..callgraph.acg import ACG, CallSite
from ..dist import TOP, DirectiveTable, Distribution
from ..dist.decomposition import _Top
from ..lang import UnitSummary
from ..lang import ast as A
from .options import Options

DistOrTop = Union[Distribution, _Top]
Fact = tuple[str, "DistOrTop"]


class ReachingError(Exception):
    """Unresolvable decomposition structure."""


@dataclass
class ProcReaching:
    """Reaching-decompositions results for one procedure."""

    name: str
    #: facts entering the procedure (formal arrays start at TOP until
    #: interprocedural propagation fills them in)
    entry: frozenset[Fact] = frozenset()
    #: per statement of *body*, in :func:`~repro.lang.ast.walk_stmts`
    #: order: facts reaching it
    at_stmt: tuple[frozenset[Fact], ...] = ()
    #: the statements solved (a procedure's pristine body)
    body: list[A.Stmt] = field(default_factory=list, repr=False,
                               compare=False)
    #: id(statement) -> position in *body*; built on first use, so it
    #: is rebuilt for the copy of the tree another process unpickles
    _index: Optional[dict[int, int]] = field(default=None, init=False,
                                             repr=False, compare=False)

    def facts_at(self, stmt: A.Stmt) -> frozenset[Fact]:
        if self._index is None:
            self._index = {id(s): i
                           for i, s in enumerate(A.walk_stmts(self.body))}
        i = self._index.get(id(stmt))
        return frozenset() if i is None else self.at_stmt[i]

    def dists_of(self, array: str, stmt: A.Stmt) -> set[DistOrTop]:
        return {d for (n, d) in self.facts_at(stmt) if n == array}

    def reaching_dists(self, array: str) -> set[DistOrTop]:
        """Union of distributions reaching any use of *array*."""
        out: set[DistOrTop] = set()
        for facts in self.at_stmt:
            out |= {d for (n, d) in facts if n == array}
        return out

    def __getstate__(self):
        # statement ids mean nothing in another process
        return {**self.__dict__, "_index": None}


def build_directive_table(proc: A.Procedure) -> DirectiveTable:
    arrays = {d.name: d.rank for d in proc.decls if d.is_array}
    table = DirectiveTable(arrays)
    for s in A.walk_stmts(proc.body):
        if isinstance(s, A.Decomposition):
            table.add_decomposition(s)
        elif isinstance(s, A.Align):
            table.add_align(s)
    return table


def _array_bounds(proc: A.Procedure, name: str,
                  param_env: dict) -> list[tuple[int, int]] | None:
    """Constant declared bounds of an array, or None when symbolic."""
    from ..analysis.symbolics import eval_int

    d = proc.decl(name)
    if d is None:
        return None
    out = []
    for lo_e, hi_e in d.dims:
        lo = eval_int(lo_e, param_env)
        hi = eval_int(hi_e, param_env)
        if lo is None or hi is None:
            return None
        out.append((lo, hi))
    return out


def entry_facts(proc: A.Procedure, opts: Options,
                const_env: dict | None = None) -> frozenset[Fact]:
    """Facts entering *proc* before interprocedural propagation: formal
    and COMMON arrays at ``TOP``, local arrays replicated.  No walk of
    the body — the local phase of Figure 6 needs only this."""
    param_env = const_env or local_param_env(proc)
    # COMMON arrays inherit their decomposition from the caller exactly
    # like formals (in the main program they behave like locals)
    inherited = {
        d.name for d in proc.decls if d.is_array and d.name in proc.formals
    }
    if proc.kind != "program":
        inherited |= set(proc.commons)
    facts: set[Fact] = {(n, TOP) for n in inherited}
    for d in proc.decls:
        if d.is_array and d.name not in inherited:
            bounds = _array_bounds(proc, d.name, param_env)
            if bounds is not None:
                facts.add(
                    (d.name, Distribution.replicated(bounds, opts.nprocs)))
    return frozenset(facts)


def _walk(body: list[A.Stmt], facts: frozenset[Fact],
          gen_kill: dict[int, tuple[frozenset[str], frozenset[Fact]]],
          at: dict[int, frozenset[Fact]]) -> frozenset[Fact]:
    """Record in *at* the facts reaching each statement of *body*, by
    ``id``; return the facts leaving it."""
    for s in body:
        at[id(s)] = facts
        if isinstance(s, A.If):
            facts = _walk(s.then_body, facts, gen_kill, at) \
                | _walk(s.else_body, facts, gen_kill, at)
        elif isinstance(s, (A.Do, A.DoWhile)):
            head = facts
            while (out := facts | _walk(s.body, head, gen_kill, at)) != head:
                head = out
            at[id(s)] = facts = head
        elif isinstance(s, (A.Return, A.Stop)):
            facts = frozenset()
        elif id(s) in gen_kill:
            kill, g = gen_kill[id(s)]
            facts = frozenset(f for f in facts if f[0] not in kill) | g
    return facts


def analyze_procedure(
    proc: A.Procedure,
    opts: Options,
    entry: frozenset[Fact] | None = None,
    const_env: dict | None = None,
) -> ProcReaching:
    """Local reaching-decompositions for one procedure: one walk of its
    structured body (DO / IF / DO WHILE, no GOTO).  A statement sees the
    facts flowing in; an IF's join is the union of its branch exits; a
    loop and its body see ``head = incoming ∪ exit(body, head)``, taken
    to its fixpoint, which is also what leaves the loop; statements
    after a RETURN / STOP in the same list see nothing.

    ``entry`` overrides the default :func:`entry_facts` (used after
    interprocedural propagation has resolved TOP); ``const_env``
    supplies interprocedurally propagated constants so DISTRIBUTE of
    formal arrays with symbolic bounds resolves.
    """
    table = build_directive_table(proc)
    param_env = const_env or local_param_env(proc)
    if entry is None:
        entry = entry_facts(proc, opts, const_env)

    # per DISTRIBUTE: the arrays it kills and the facts it generates
    gen_kill: dict[int, tuple[frozenset[str], frozenset[Fact]]] = {}
    for s in A.walk_stmts(proc.body):
        if isinstance(s, A.Distribute):
            try:
                changed = table.resolve_distribute(s)
            except ValueError as e:
                raise ReachingError(f"{proc.name}: {e}") from e
            g: set[Fact] = set()
            for arr, value in changed.items():
                bounds = _array_bounds(proc, arr, param_env)
                if bounds is None:
                    # symbolic bounds: distribution becomes concrete only
                    # with inherited bounds; defer via TOP-like handling
                    raise ReachingError(
                        f"{proc.name}: DISTRIBUTE of {arr} with symbolic "
                        f"bounds is not supported"
                    )
                g.add((arr, Distribution.from_specs(
                    value.specs, bounds, opts.nprocs)))
            gen_kill[id(s)] = (frozenset(changed), frozenset(g))

    at: dict[int, frozenset[Fact]] = {}
    _walk(proc.body, entry, gen_kill, at)
    return ProcReaching(proc.name, entry,
                        tuple(at[id(s)] for s in A.walk_stmts(proc.body)),
                        proc.body)


def _solve(proc: A.Procedure, summary: UnitSummary | None, opts: Options,
           entry: frozenset[Fact], const_env: dict) -> ProcReaching:
    """:func:`analyze_procedure`, memoised on the procedure's local
    *summary* (if any) by (entry facts, constants, nprocs).  Facts are
    held by statement position, so one solve serves every tree cloned
    from the unit's text."""
    if summary is None:
        return analyze_procedure(proc, opts, entry, const_env=const_env)
    # the type keeps 64 and 64.0 apart: they resolve bounds differently
    env = tuple((k, type(v), v) for k, v in sorted(const_env.items()))
    facts = summary.derive(
        ("reaching", entry, env, opts.nprocs),
        lambda: analyze_procedure(proc, opts, entry,
                                  const_env=const_env).at_stmt)
    return ProcReaching(proc.name, entry, facts, proc.body)


def translate_to_callee(facts: frozenset[Fact],
                        site: CallSite) -> frozenset[Fact]:
    """The paper's ``Translate``: map actual-array facts to the callee's
    formal names; facts for COMMON (global) arrays are simply copied."""
    out: set[Fact] = set()
    for formal, actual in site.array_actuals.items():
        for name, d in facts:
            if name == actual:
                out.add((formal, d))
    for name, d in facts:
        if name in site.callee_commons:
            out.add((name, d))
    return frozenset(out)


@dataclass
class ReachingResult:
    """Whole-program reaching decompositions."""

    per_proc: dict[str, ProcReaching]
    #: per call-site id: translated facts (callee formal names)
    site_reaching: dict[int, frozenset[Fact]]
    #: per-procedure constant environments (interprocedural constants)
    constants: dict[str, dict]


def compute_reaching(acg: ACG, opts: Options) -> ReachingResult:
    """Figure 6: local entry facts + one top-down walk of the call graph
    (:meth:`~repro.callgraph.acg.ACG.propagate`), solving each
    procedure's data flow once, with TOP already resolved from its
    callers (a unit as parsed reuses the solve of its text under the
    same entry facts: :func:`_solve`)."""
    from ..analysis.constants import propagate_constants

    program = acg.program
    constants = propagate_constants(acg)

    def across(site: CallSite, caller: ProcReaching) -> frozenset[Fact]:
        return translate_to_callee(caller.facts_at(site.stmt), site)

    def local(name: str, reaching: frozenset[Fact]) -> ProcReaching:
        proc = program.unit(name)
        if proc.kind == "program":
            reaching = frozenset()
        # resolve TOP in the local entry facts with the propagated ones,
        # then solve: the one data-flow solve per procedure
        entry: set[Fact] = set()
        for arr, d in entry_facts(proc, opts, constants[name]):
            if d is TOP:
                resolved = {dd for (n, dd) in reaching if n == arr}
                if resolved:
                    entry |= {(arr, dd) for dd in resolved}
                else:
                    entry.add((arr, TOP))
            else:
                entry.add((arr, d))
        return _solve(proc, acg.node(name).summary, opts,
                      frozenset(entry), constants[name])

    per_proc, site_reaching = acg.propagate(
        True, across, lambda facts: frozenset().union(*facts), local)
    return ReachingResult(per_proc, site_reaching, constants)
