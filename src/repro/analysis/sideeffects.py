"""Interprocedural side-effect analysis: GMOD / GREF and ``Appear``.

``Gmod(P)`` / ``Gref(P)`` are the formal parameters of P that may be
modified / referenced by P *or its descendants* in the call graph.  The
paper uses ``Appear(P) = Gmod(P) ∪ Gref(P)`` to avoid unnecessary cloning
(§5.2): cloning is driven only by decompositions of variables that
actually appear in the callee or below.

Alongside the scalar sets we collect *array section* side effects —
RSD-summarized defs/uses per array (the "interprocedural RSD analysis"
of §4/§5.4) — which communication analysis consumes at call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..callgraph.acg import ACG, CallSite
from ..lang import ast as A
from .symbolics import free_vars


@dataclass
class SideEffects:
    """Per-procedure side-effect summary over *formal* names."""

    mod: set[str] = field(default_factory=set)  # directly or below
    ref: set[str] = field(default_factory=set)

    @property
    def appear(self) -> set[str]:
        return self.mod | self.ref


def _direct_effects(proc: A.Procedure) -> SideEffects:
    """mod/ref of the procedure's own statements (call effects excluded)."""
    eff = SideEffects()

    def note_expr(e: A.Expr) -> None:
        # a call's arguments are walked as well, so a variable passed to
        # a user function counts as referenced: all Appear needs (the
        # function's own effects are not summarised, since function
        # references add no ACG edge)
        for sub in A.walk_exprs(e):
            if isinstance(sub, (A.Var, A.ArrayRef)):
                eff.ref.add(sub.name)

    for s in A.walk_stmts(proc.body):
        if isinstance(s, A.Assign):
            eff.mod.add(s.target.name)
            if isinstance(s.target, A.ArrayRef):
                for sub in s.target.subs:
                    note_expr(sub)
            note_expr(s.expr)
        elif isinstance(s, A.If):
            note_expr(s.cond)
        elif isinstance(s, A.Do):
            eff.mod.add(s.var)
            note_expr(s.lo)
            note_expr(s.hi)
            note_expr(s.step)
        elif isinstance(s, A.DoWhile):
            note_expr(s.cond)
        elif isinstance(s, A.Print):
            for item in s.items:
                note_expr(item)
        elif isinstance(s, A.Call):
            for a in s.args:
                # scalar-expression actuals are referenced here; array
                # names flow through the interprocedural phase below
                if not isinstance(a, A.Var):
                    note_expr(a)
    return eff


def compute_side_effects(acg: ACG) -> dict[str, SideEffects]:
    """Solve GMOD/GREF bottom-up over the (acyclic) call graph.

    Returns per-procedure summaries restricted to names visible in that
    procedure (formals and locals); at call sites the callee's formal
    effects are translated to the actuals.
    """

    def across(site: CallSite, callee_eff: SideEffects) -> SideEffects:
        commons = set(site.callee_commons)
        eff = SideEffects(callee_eff.mod & commons, callee_eff.ref & commons)
        for formal, actual in site.actual_of.items():
            if isinstance(actual, A.Var):
                if formal in callee_eff.mod:
                    eff.mod.add(actual.name)
                if formal in callee_eff.ref:
                    eff.ref.add(actual.name)
            elif formal in callee_eff.appear:
                # expression actual: a use of its variables; cannot be
                # modified (Fortran would pass a temporary)
                eff.ref |= free_vars(actual)
        return eff

    def meet(facts: list[SideEffects]) -> SideEffects:
        return SideEffects(set().union(*(f.mod for f in facts)),
                           set().union(*(f.ref for f in facts)))

    def local(name: str, below: SideEffects) -> SideEffects:
        eff = _direct_effects(acg.node(name).proc)
        eff.mod |= below.mod
        eff.ref |= below.ref
        return eff

    return acg.propagate(False, across, meet, local)[0]


def appear(acg: ACG, effects: dict[str, SideEffects], name: str) -> set[str]:
    """``Appear(P)`` restricted to the names visible across the call
    boundary: formal parameters and COMMON (global) arrays (§5.2)."""
    proc = acg.node(name).proc
    return effects[name].appear & (set(proc.formals) | set(proc.commons))
