"""Interprocedural constant propagation (Table 1: "symbolics &
constants").

A formal scalar parameter is a known constant inside a procedure when
every call site passes the same compile-time-constant actual (evaluated
under the *caller's* constants, so values flow down call chains).  The
compiler uses this to resolve symbolic array bounds like ``a(n, n)`` and
loop bounds in callees — without it, DISTRIBUTE of formal arrays and
most of dgefa would fall back to run-time resolution.

The propagation is one top-down walk of the (acyclic) call graph
(:meth:`~repro.callgraph.acg.ACG.propagate`); a formal receiving
different values from different call sites is dropped (procedure
cloning, which runs alongside, tends to split exactly those call sites
anyway).
"""

from __future__ import annotations

from typing import Union

from ..callgraph.acg import ACG, CallSite
from ..lang import ast as A
from .symbolics import eval_const

Number = Union[int, float]

def local_param_env(proc: A.Procedure) -> dict[str, Number]:
    env: dict[str, Number] = {}
    for p in proc.params:
        v = eval_const(p.value, env)
        if v is not None:
            env[p.name] = v
    return env


def _is_assigned(proc: A.Procedure, name: str) -> bool:
    for s in A.walk_stmts(proc.body):
        if isinstance(s, A.Assign) and isinstance(s.target, A.Var) \
                and s.target.name == name:
            return True
        if isinstance(s, A.Do) and s.var == name:
            return True
    return False


def propagate_constants(acg: ACG) -> dict[str, dict[str, Number]]:
    """Per-procedure constant environments: PARAMETER constants plus
    formals constant across all call sites (and not reassigned)."""

    # per scalar formal: its value, or None when not a compile-time
    # constant at some site or not the same at every site
    def across(site: CallSite, caller_env: dict) -> dict[str, object]:
        return {formal: eval_const(actual, caller_env)
                for formal, actual in site.actual_of.items()
                if formal not in site.array_actuals}

    def meet(facts: list[dict[str, object]]) -> dict[str, object]:
        incoming: dict[str, object] = {}
        for fact in facts:
            for formal, v in fact.items():
                if incoming.setdefault(formal, v) != v:
                    incoming[formal] = None
        return incoming

    def local(name: str, incoming: dict[str, object]) -> dict[str, Number]:
        proc = acg.node(name).proc
        env = local_param_env(proc)
        for formal, v in incoming.items():
            if v is not None and not _is_assigned(proc, formal):
                env.setdefault(formal, v)  # PARAMETER wins if clashing
        return env

    return acg.propagate(True, across, meet, local)[0]
