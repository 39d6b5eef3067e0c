"""Alias analysis for parameter passing (§6.4).

In Fortran 77 aliases arise through parameter passing: two formals alias
when the same array is passed for both, directly or along some call
chain.  Fortran D "disallows dynamic data decomposition for aliased
variables" — redistributing one name would silently move the storage the
other name still expects — so the compiler must detect aliases and
reject (or fall back on) dynamic decomposition of aliased formals.

The analysis is the classical pairwise-formal propagation: alias pairs
are seeded at call sites that pass the same actual twice and propagated
top-down through the (acyclic) call graph
(:meth:`~repro.callgraph.acg.ACG.propagate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..callgraph.acg import ACG, CallSite


@dataclass
class AliasInfo:
    """Per-procedure may-alias pairs over formal array names."""

    pairs: dict[str, set[frozenset[str]]] = field(default_factory=dict)

    def aliased(self, proc: str, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.pairs.get(proc, set())

    def aliased_formals(self, proc: str) -> set[str]:
        out: set[str] = set()
        for pair in self.pairs.get(proc, set()):
            out |= set(pair)
        return out


def compute_aliases(acg: ACG) -> AliasInfo:
    """Top-down alias propagation over the call graph."""

    def across(site: CallSite,
               caller_pairs: set[frozenset[str]]) -> set[frozenset[str]]:
        pairs: set[frozenset[str]] = set()
        # formals receiving the same actual array alias directly
        by_actual: dict[str, list[str]] = {}
        for formal, actual in site.array_actuals.items():
            by_actual.setdefault(actual, []).append(formal)
        for formals in by_actual.values():
            for i in range(len(formals)):
                for j in range(i + 1, len(formals)):
                    pairs.add(frozenset((formals[i], formals[j])))
        # aliases among actuals propagate to the bound formals
        for pair in caller_pairs:
            a, b = tuple(pair)
            for fa in by_actual.get(a, ()):
                for fb in by_actual.get(b, ()):
                    if fa != fb:
                        pairs.add(frozenset((fa, fb)))
        return pairs

    pairs, _ = acg.propagate(True, across, lambda facts: set().union(*facts),
                             lambda name, pairs: pairs)
    return AliasInfo(pairs)


class AliasedRedistributionError(Exception):
    """Dynamic data decomposition of an aliased variable (§6.4)."""


def check_dynamic_decomposition(acg: ACG, aliases: AliasInfo) -> None:
    """Enforce §6.4: a procedure may not dynamically redistribute a
    formal that may be aliased."""
    from ..core.dynamic import find_dynamic_distributes
    from ..core.reaching import build_directive_table

    for name in acg.nodes:
        bad = aliases.aliased_formals(name)
        if not bad:
            continue
        proc = acg.node(name).proc
        dynamic = find_dynamic_distributes(proc, proc.kind == "program")
        if not dynamic:
            continue
        table = build_directive_table(proc)
        for stmt in dynamic:
            try:
                targets = set(table.resolve_distribute(stmt))
            except ValueError:
                targets = {stmt.name}
            hit = targets & bad
            if hit:
                raise AliasedRedistributionError(
                    f"{name}: dynamic decomposition of aliased "
                    f"variable(s) {sorted(hit)} is not allowed in "
                    f"Fortran D (§6.4)"
                )
