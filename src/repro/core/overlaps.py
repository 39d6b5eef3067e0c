"""Interprocedural overlap calculation (§5.6, Figure 13).

Overlap regions extend an array's local block to hold nonlocal boundary
data ("overlaps" [Gerndt]).  Because multidimensional arrays must keep
consistent shapes across procedures, overlap extents must agree globally
— which naively needs a second compilation pass.  The paper instead
*estimates*: during local analysis it records the constant offsets that
appear in subscripts; interprocedural propagation translates and merges
them bottom-up through call sites and broadcasts the resulting maximal
estimate; code generation then checks the estimate against the overlaps
actually needed (our shift-communication actions) and falls back to
buffers when it was too small.

This module implements the estimation pipeline; the driver's
per-procedure ``exports.overlap_offsets`` are the "actual" values the
estimate is validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.symbolics import affine_of
from ..callgraph.acg import ACG
from ..lang import ast as A

#: per-axis (lowest negative offset, highest positive offset)
Offsets = list[tuple[int, int]]


@dataclass
class OverlapEstimate:
    """Whole-program overlap estimates."""

    #: (procedure, array) -> per-axis offsets
    per_proc: dict[tuple[str, str], Offsets] = field(default_factory=dict)

    def get(self, proc: str, array: str, rank: int) -> Offsets:
        return self.per_proc.get((proc, array), [(0, 0)] * rank)


def _merge(a: Offsets, b: Offsets) -> Offsets:
    rank = max(len(a), len(b))
    a = a + [(0, 0)] * (rank - len(a))
    b = b + [(0, 0)] * (rank - len(b))
    return [
        (min(x[0], y[0]), max(x[1], y[1])) for x, y in zip(a, b)
    ]


def local_offsets(proc: A.Procedure, env: dict | None = None) -> dict[str, Offsets]:
    """Local analysis phase: constant subscript offsets per array axis
    (the reference ``Z(k+5, i)`` yields offset ``(+5, 0)``)."""
    arrays = {d.name: d.rank for d in proc.decls if d.is_array}
    out: dict[str, Offsets] = {
        name: [(0, 0)] * rank for name, rank in arrays.items()
    }
    for e in A.walk_all_exprs(proc.body):
        if not isinstance(e, A.ArrayRef) or e.name not in arrays:
            continue
        offs = out[e.name]
        for axis, sub in enumerate(e.subs):
            if axis >= len(offs):
                break
            aff = affine_of(sub, env)
            if aff is None or aff.var is None:
                continue
            lo, hi = offs[axis]
            offs[axis] = (min(lo, aff.offset), max(hi, aff.offset))
    return out


def _meet(facts: list[dict[str, Offsets]]) -> dict[str, Offsets]:
    """Per-array merge of offset maps, keys in first-seen order."""
    out: dict[str, Offsets] = {}
    for fact in facts:
        for arr, offs in fact.items():
            out[arr] = _merge(out.get(arr, []), offs)
    return out


def _rename(offs: dict[str, Offsets], pairs) -> dict[str, Offsets]:
    """*offs* under new array names: ``(old, new)`` per binding."""
    return _meet([{new: offs[old]} for old, new in pairs if old in offs])


def estimate_overlaps(acg: ACG, env_of: dict[str, dict] | None = None) -> OverlapEstimate:
    """Figure 13's propagation phase: merge local offsets bottom-up
    through call sites (formal -> actual), then push the merged maxima
    back down so every procedure sees a consistent estimate — two walks
    of the call graph (:meth:`~repro.callgraph.acg.ACG.propagate`)."""
    env_of = env_of or {}
    up, _ = acg.propagate(
        False,
        lambda site, offs: _rename(offs, site.array_actuals.items()),
        _meet,
        lambda name, below: _meet([
            local_offsets(acg.node(name).proc, env_of.get(name)), below]),
    )
    down, _ = acg.propagate(
        True,
        lambda site, offs: _rename(
            offs, [(a, f) for f, a in site.array_actuals.items()]),
        _meet,
        lambda name, above: _meet([up[name], above]),
    )
    return OverlapEstimate({(name, arr): offs for name, m in down.items()
                            for arr, offs in m.items()})


@dataclass
class OverlapValidation:
    """Code-generation phase check: estimate vs actually needed."""

    sufficient: bool
    #: (procedure, array, axis) entries where the estimate was too small
    #: and buffers must be used instead (§5.6 "use buffer instead")
    buffer_fallbacks: list[tuple[str, str, int]] = field(default_factory=list)


def validate_overlaps(
    estimate: OverlapEstimate,
    actual: dict[tuple[str, str], Offsets],
) -> OverlapValidation:
    """Compare the interprocedural estimate against the overlaps the
    generated communication actually requires."""
    v = OverlapValidation(sufficient=True)
    for (proc, arr), offs in actual.items():
        est = estimate.per_proc.get((proc, arr))
        if est is None:
            est = [(0, 0)] * len(offs)
        for axis, (lo, hi) in enumerate(offs):
            elo, ehi = est[axis] if axis < len(est) else (0, 0)
            if lo < elo or hi > ehi:
                v.sufficient = False
                v.buffer_fallbacks.append((proc, arr, axis))
    return v
