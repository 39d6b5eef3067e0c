"""Run-time data remapping library (§6).

Fortran D "assumes the existence of a collection of library routines that
can be invoked to remap arrays for different data decompositions".  This
module is that library for the simulated machine:

* :func:`remap_array_y` — physical redistribution: every node sends the
  elements it owns under the old distribution to their owners under the
  new one (all-to-all personalized exchange), then records the new
  distribution on the array.  A generator, like every operation that
  can block: enter it with ``yield from``.
* :func:`mark_array` — the §6.3 array-kill optimization: when the
  array's values are dead, remap *in place* by only changing the
  recorded distribution (zero data motion).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from ..analysis.rsd import RSD, Range
from ..dist import Distribution

if TYPE_CHECKING:  # pragma: no cover
    from .node import FArray
    from ..machine.machine import ProcContext


def _bounds(dist: Distribution) -> list[tuple[int, int]]:
    return [(d.lo, d.hi) for d in dist.dims]


def _rsd_to_slices(section: RSD, bounds: list[tuple[int, int]]) -> tuple:
    """The numpy index tuple of *section* in an array of *bounds*."""
    out = []
    for d, (lo, hi) in zip(section.dims, bounds):
        assert isinstance(d, Range) and lo <= d.lo <= d.hi <= hi
        out.append(slice(d.lo - lo, d.hi - lo + 1, d.step))
    return tuple(out)


def transfer_sections(
    old: Distribution, new: Distribution, src: int, dst: int
) -> list[RSD]:
    """Sections owned by *src* under *old* that *dst* owns under *new*."""
    out: list[RSD] = []
    for a in old.local_index_sets(src):
        for b in new.local_index_sets(dst):
            piece = a.intersect(b)
            if not piece.empty:
                out.append(piece)
    return out


@functools.lru_cache(maxsize=64)
def send_plans(old: Distribution, new: Distribution, nprocs: int
               ) -> tuple[tuple[tuple[int, tuple[tuple, ...]], ...], ...]:
    """Every rank's part of a remap from *old* to *new*: entry ``me``
    lists, per destination that receives anything from rank *me*, the
    numpy index tuples of the sections (the pieces
    :func:`transfer_sections` finds, in its order) in an array of
    *old*'s bounds, which :func:`remap_array_y` checks are the
    array's.

    Memoised by value (a :class:`Distribution` hashes by its fields): a
    phase computation remaps between the same two distributions every
    step, and each rank would otherwise intersect its sections with
    every peer's each time.  One entry holds all ranks' plans, so a run
    needs one entry per distinct (old, new) pair whatever P is: two for
    an array remapped back and forth.  Immutable, since every rank
    shares it."""
    bounds = _bounds(old)
    have = [old.local_index_sets(r) for r in range(nprocs)]
    want = [new.local_index_sets(r) for r in range(nprocs)]
    table = []
    for me in range(nprocs):
        plan = []
        for dst in range(nprocs):
            if dst == me:
                continue
            pieces = (a.intersect(b) for a in have[me] for b in want[dst])
            slices = tuple(_rsd_to_slices(p, bounds)
                           for p in pieces if not p.empty)
            if slices:
                plan.append((dst, slices))
        table.append(tuple(plan))
    return tuple(table)


def _build_outgoing(
    ctx: "ProcContext", arr: "FArray", old: Distribution, new: Distribution
) -> tuple[dict[int, list], int]:
    """Read out the sections this rank must ship: ``{dst: [(slices,
    payload), ...]}`` plus the total outgoing byte count."""
    outgoing: dict[int, list] = {}
    out_bytes = 0
    for dst, sections in send_plans(old, new, ctx.nprocs)[ctx.rank]:
        bundle = []
        for slices in sections:
            payload = arr.data[slices].copy()
            bundle.append((slices, payload))
            out_bytes += payload.size * arr.element_bytes
        outgoing[dst] = bundle
    return outgoing, out_bytes


def _apply_incoming(
    ctx: "ProcContext", arr: "FArray", incoming: dict[int, list],
    new: Distribution, out_bytes: int,
) -> None:
    """Write received sections and record the new distribution.

    Each rank records its own outgoing volume; summed over ranks that
    equals the total data moved, without an O(P^2) all-pairs section
    scan.  Rank 0 counts the remap operation itself."""
    for _src, bundle in incoming.items():
        for slices, payload in bundle:
            arr.data[slices] = payload  # the sender's section, same shape
    arr.dist = new
    ctx.stats.record_remap(out_bytes, count=1 if ctx.rank == 0 else 0)


def remap_array_y(ctx: "ProcContext", arr: "FArray", new: Distribution,
                  origin: str = None):
    """Physically redistribute *arr* to *new* (collective; suspends the
    rank in the all-to-all exchange)."""
    old = arr.dist
    if old is None:
        old = Distribution.replicated(arr.bounds, ctx.nprocs)
    if old.same_mapping(new):
        arr.dist = new  # mapping-identical: recorded in place, no motion
        return
    # the memoised plan indexes an array of the distributions' bounds
    if not arr.bounds == _bounds(old) == _bounds(new):
        raise IndexError(
            f"{arr.name}: bounds {arr.bounds} differ from its "
            f"distribution's ({_bounds(old)} -> {_bounds(new)})"
        )
    outgoing, out_bytes = _build_outgoing(ctx, arr, old, new)
    incoming = yield from ctx.exchange_y(outgoing, out_bytes, origin=origin)
    _apply_incoming(ctx, arr, incoming, new, out_bytes)


def mark_array(arr: "FArray", new: Distribution) -> None:
    """Remap in place (array values dead): no data motion, no cost."""
    arr.dist = new
