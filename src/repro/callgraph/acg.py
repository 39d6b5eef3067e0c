"""Augmented call graph (ACG) — §5.1, Figure 5.

The ACG is the call graph plus *loop nodes* (bounds, step, and index
variable of every loop) and *nesting edges* recording which loops enclose
which call sites.  It also stores the formal/actual parameter bindings
used by the ``Translate`` function to map data-flow sets across calls —
including the annotation that a formal parameter is bound to a caller's
loop index variable (the paper's example: formal ``i`` of F1/F2 is the
index of P1's loop running 1:100 step 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from ..lang import UnitSummary
from ..lang import ast as A
from ..lang.printer import expr_str


class CallGraphError(Exception):
    """Recursion, missing procedures, or malformed call sites."""


@dataclass
class LoopInfo:
    """One loop node of the ACG."""

    var: str
    lo: A.Expr
    hi: A.Expr
    step: A.Expr
    stmt: A.Do
    depth: int  # 1-based nesting depth within its procedure

    def __str__(self) -> str:
        return (
            f"do {self.var} = {expr_str(self.lo)}, {expr_str(self.hi)}"
            + (f", {expr_str(self.step)}" if self.step != A.ONE else "")
        )


@dataclass
class CallSite:
    """A call edge of the ACG, with its enclosing loop stack, parameter
    bindings and the callee's COMMON names — everything a caller's
    compile reads about one of its calls."""

    id: int
    caller: str
    callee: str
    stmt: A.Call
    loops: list[LoopInfo]  # outermost first
    actual_of: dict[str, A.Expr] = field(default_factory=dict)
    #: formal array name -> actual array name, for whole-array actuals
    array_actuals: dict[str, str] = field(default_factory=dict)
    #: formal scalar name -> the caller LoopInfo whose index it is bound to
    index_formals: dict[str, LoopInfo] = field(default_factory=dict)
    #: True when any array actual/formal pair disagrees in rank
    reshaped: bool = False
    #: the callee's COMMON names (global arrays map to themselves)
    callee_commons: tuple[str, ...] = ()

    def translate_expr(self, e: A.Expr) -> A.Expr:
        """Rewrite an expression over callee formals into caller terms."""
        from ..analysis.symbolics import substitute

        return substitute(e, self.actual_of)

    def __str__(self) -> str:
        return f"{self.caller} -> {self.callee} @site{self.id}"


@dataclass
class ProcNode:
    """Per-procedure ACG information."""

    proc: A.Procedure
    loops: list[LoopInfo] = field(default_factory=list)
    call_sites: list[CallSite] = field(default_factory=list)  # outgoing
    callers: list[CallSite] = field(default_factory=list)  # incoming
    #: the unit's local summary when ``proc`` is its tree as parsed;
    #: None for clones and units the front end rewrote
    summary: Optional[UnitSummary] = None


class ACG:
    """The augmented call graph for a whole program.  *local* maps unit
    names to their local summaries (see :attr:`ProcNode.summary`)."""

    def __init__(self, program: A.Program,
                 local: Optional[dict[str, UnitSummary]] = None) -> None:
        self.program = program
        self.nodes: dict[str, ProcNode] = {}
        self.calls: list[CallSite] = []
        self._build(local or {})
        self._check_recursion()

    # -- queries ---------------------------------------------------------

    def node(self, name: str) -> ProcNode:
        return self.nodes[name]

    def procedures(self) -> Iterator[A.Procedure]:
        for n in self.nodes.values():
            yield n.proc

    def calls_from(self, name: str) -> list[CallSite]:
        return self.nodes[name].call_sites

    def calls_to(self, name: str) -> list[CallSite]:
        return self.nodes[name].callers

    def callees(self, name: str) -> set[str]:
        return {c.callee for c in self.calls_from(name)}

    def topological_order(self) -> list[str]:
        """Callers before callees (main first)."""
        order: list[str] = []
        visited: set[str] = set()

        def visit(name: str) -> None:
            if name in visited:
                return
            visited.add(name)
            for c in self.calls_from(name):
                visit(c.callee)
            order.append(name)

        roots = [u.name for u in self.program.units if u.kind == "program"]
        roots += [n for n in self.nodes if n not in visited]
        for r in roots:
            visit(r)
        order.reverse()
        return order

    def reverse_topological_order(self) -> list[str]:
        """Callees before callers — the paper's code-generation order."""
        return list(reversed(self.topological_order()))

    def propagate(self, down: bool, across: Callable, meet: Callable,
                  local: Callable) -> tuple[dict[str, Any], dict[int, Any]]:
        """The one walk every Table 1 problem is an instance of.  Visits
        the procedures callers-first (*down*) or callees-first; at each,
        asks every call site for ``across(site, value)`` of its end
        already visited, takes ``meet`` of those facts (a list, in
        call-site order) as the procedure's boundary and computes its
        value as ``local(name, boundary)``.  Returns the values per
        procedure, in visit order, and the facts per call-site id."""
        order = self.topological_order()
        if not down:
            order.reverse()
        values: dict[str, Any] = {}
        facts: dict[int, Any] = {}
        for name in order:
            node = self.nodes[name]
            sites = node.callers if down else node.call_sites
            for s in sites:
                facts[s.id] = across(s, values[s.caller if down else s.callee])
            values[name] = local(name, meet([facts[s.id] for s in sites]))
        return values, facts

    # -- construction ------------------------------------------------------

    def _build(self, local: dict[str, UnitSummary]) -> None:
        for unit in self.program.units:
            self.nodes[unit.name] = ProcNode(unit,
                                             summary=local.get(unit.name))
        for unit in self.program.units:
            self._scan_body(unit, unit.body, [])

    def _scan_body(
        self, unit: A.Procedure, body: list[A.Stmt], loops: list[LoopInfo]
    ) -> None:
        for s in body:
            if isinstance(s, A.Do):
                info = LoopInfo(s.var, s.lo, s.hi, s.step, s, len(loops) + 1)
                self.nodes[unit.name].loops.append(info)
                self._scan_body(unit, s.body, loops + [info])
            elif isinstance(s, A.DoWhile):
                self._scan_body(unit, s.body, loops)
            elif isinstance(s, A.If):
                self._scan_body(unit, s.then_body, loops)
                self._scan_body(unit, s.else_body, loops)
            elif isinstance(s, A.Call):
                self._add_call(unit, s, list(loops))
            # function references (``A.FuncRef``) add no ACG edge: the
            # interprocedural phases see CALL statements only

    def _add_call(
        self, unit: A.Procedure, stmt: A.Call, loops: list[LoopInfo]
    ) -> None:
        callee = self.nodes.get(stmt.name)
        if callee is None:
            raise CallGraphError(
                f"{unit.name}: call to undefined procedure {stmt.name!r}"
            )
        formals = callee.proc.formals
        if len(formals) != len(stmt.args):
            raise CallGraphError(
                f"{unit.name}: call to {stmt.name} passes {len(stmt.args)} "
                f"args for {len(formals)} formals"
            )
        site = CallSite(
            id=len(self.calls),
            caller=unit.name,
            callee=stmt.name,
            stmt=stmt,
            loops=loops,
            callee_commons=tuple(callee.proc.commons),
        )
        loop_by_var = {l.var: l for l in loops}
        for formal, actual in zip(formals, stmt.args):
            site.actual_of[formal] = actual
            fdecl = callee.proc.decl(formal)
            if fdecl is not None and fdecl.is_array:
                if isinstance(actual, A.Var):
                    adecl = unit.decl(actual.name)
                    if adecl is None or not adecl.is_array:
                        raise CallGraphError(
                            f"site {site}: array formal {formal!r} bound to "
                            f"non-array actual {expr_str(actual)!r}"
                        )
                    site.array_actuals[formal] = actual.name
                    if adecl.rank != fdecl.rank:
                        site.reshaped = True
                else:
                    # passing an element/section: reshaping across the call
                    site.reshaped = True
            else:
                if isinstance(actual, A.Var) and actual.name in loop_by_var:
                    site.index_formals[formal] = loop_by_var[actual.name]
        self.calls.append(site)
        self.nodes[unit.name].call_sites.append(site)
        callee.callers.append(site)

    def _check_recursion(self) -> None:
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in self.nodes}

        def dfs(name: str, stack: list[str]) -> None:
            color[name] = GRAY
            for c in self.calls_from(name):
                if color[c.callee] == GRAY:
                    cycle = " -> ".join(stack + [name, c.callee])
                    raise CallGraphError(
                        f"recursive call chain not supported: {cycle}"
                    )
                if color[c.callee] == WHITE:
                    dfs(c.callee, stack + [name])
            color[name] = BLACK

        for n in list(self.nodes):
            if color[n] == WHITE:
                dfs(n, [])

    # -- rendering (Figure 5 style) ----------------------------------------

    def describe(self) -> str:
        lines = []
        for name, node in self.nodes.items():
            lines.append(f"{name}:")
            for l in node.loops:
                lines.append(f"  loop {l}")
            for c in node.call_sites:
                nest = (
                    " in " + "/".join(l.var for l in c.loops) if c.loops else ""
                )
                lines.append(f"  call {c.callee}{nest}")
        return "\n".join(lines)
