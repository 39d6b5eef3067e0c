"""Procedure cloning (§5.2, Figure 8).

The compiler generates much better code when each array has a single
reaching decomposition per procedure.  Calls to P are partitioned by
``Filter(Translate(LocalReaching(C)), Appear(P))`` — the decompositions
they supply for variables that actually appear in P or its descendants —
and a clone of P is created per partition.  Pathological growth is capped
(§5.2: beyond a threshold, cloning is disabled and run-time resolution
takes over).

Cloning changes the call graph, which changes reaching decompositions in
descendants, so the driver iterates: analyze, clone the first procedure
that needs it (in topological order), re-analyze — until stable.  Units
still as parsed keep their local summaries, so a re-analysis re-solves
only the clones, the redirected callers and the procedures whose entry
facts changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.sideeffects import appear, compute_side_effects
from ..callgraph.acg import ACG
from ..lang import ast as A
from .options import Options
from .reaching import Fact, ReachingResult, compute_reaching


@dataclass
class CloneOutcome:
    """Result of the cloning transformation."""

    program: A.Program
    acg: ACG
    reaching: ReachingResult
    #: original name -> clone names created (original kept for 1st group)
    clones: dict[str, list[str]] = field(default_factory=dict)
    #: cloning disabled due to growth; affected procedures
    growth_capped: bool = False


def _filter(facts: frozenset[Fact], names: set[str]) -> frozenset[Fact]:
    """The paper's Filter: drop decompositions of variables that do not
    appear in the callee or its descendants."""
    return frozenset(f for f in facts if f[0] in names)


def _partition_calls(
    acg: ACG, reaching: ReachingResult, name: str,
) -> list[tuple[frozenset[Fact], list]]:
    """Group calls to *name* by their (unfiltered) reaching facts."""
    groups: dict[frozenset[Fact], list] = {}
    for site in acg.calls_to(name):
        facts = reaching.site_reaching.get(site.id, frozenset())
        groups.setdefault(facts, []).append(site)
    return list(groups.items())


def _merge_filtered(
    groups: list[tuple[frozenset[Fact], list]], appear: set[str],
) -> list[tuple[frozenset[Fact], list]]:
    """Merge *groups* whose keys agree once filtered to *appear*: the
    partition by ``Filter(facts, Appear)``, groups in the same order."""
    merged: dict[frozenset[Fact], list] = {}
    for key, sites in groups:
        merged.setdefault(_filter(key, appear), []).extend(sites)
    return list(merged.items())


def clone_program(program: A.Program, opts: Options,
                  local: dict | None = None) -> CloneOutcome:
    """Iteratively clone until every procedure has a single partition of
    callers (or the growth cap is hit).  *local* maps the units still as
    parsed to their local summaries (see :class:`~repro.callgraph.acg.ACG`);
    a caller whose calls are redirected to a clone leaves it."""
    original_count = len(program.units)
    clones: dict[str, list[str]] = {}
    local = dict(local or {})
    while True:
        acg = ACG(program, local)
        reaching = compute_reaching(acg, opts)
        outcome = CloneOutcome(program, acg, reaching, clones)
        if not opts.enable_cloning:
            return outcome
        # Filter only merges groups, so side effects (for Appear) are
        # needed only once some procedure has two unfiltered groups;
        # its filtered partition merges those groups
        effects = None
        changed = False
        for name in acg.topological_order():
            proc = program.unit(name)
            if proc.kind == "program":
                continue
            groups = _partition_calls(acg, reaching, name)
            if len(groups) <= 1:
                continue
            if effects is None:
                effects = compute_side_effects(acg)
            groups = _merge_filtered(groups, appear(acg, effects, name))
            if len(groups) <= 1:
                continue
            if len(program.units) + len(groups) - 1 > (
                opts.clone_growth_limit * original_count
            ):
                outcome.growth_capped = True
                return outcome
            # create one clone per additional partition; the first keeps
            # the original name
            clone_names = []
            for gi, (_key, sites) in enumerate(groups[1:], start=1):
                clone_name = _fresh_name(program, name, gi)
                clone = A.clone_procedure(proc, clone_name)
                program.units.append(clone)
                clone_names.append(clone_name)
                for site in sites:
                    site.stmt.name = clone_name
                    local.pop(site.caller, None)
            clones.setdefault(name, []).extend(clone_names)
            changed = True
            break  # re-analyze from scratch after each transformation
        if not changed:
            return outcome


def _fresh_name(program: A.Program, base: str, start: int) -> str:
    i = start
    names = set(program.names())
    while f"{base}${i}" in names:
        i += 1
    return f"{base}${i}"
