"""Interconnect topologies: hop counts, routes, and collective trees.

The original cost model charged every message the same uniform
``alpha + bytes*beta`` regardless of which pair of ranks exchanged it,
and every collective a flat ``ceil(log2 P)``-stage tree.  Real MIMD
distributed-memory machines are not uniform: the paper's Intel
iPSC/860 is a hypercube, its successors were meshes, tori, and
fat-trees, and on all of them both the per-message latency (hop count)
and the shape of a good collective tree depend on the network
structure.

A :class:`Topology` captures exactly that design space:

* ``hops(src, dst)`` — path length in links between two ranks;
* ``link_path(src, dst)`` — the directed links the message traverses
  (used for link-contention serialization and the ``fdc --profile``
  per-link traffic report);
* ``transfer_time(cost, nbytes, src, dst)`` — send-start to
  data-available latency: ``alpha + (hops-1)*hop + bytes*beta``.
  The first hop is covered by ``alpha`` (message startup includes
  injection), additional hops each pay ``CostModel.hop``;
* ``collective_cost(cost, P, nbytes)`` / ``barrier_cost(cost, P)`` —
  topology-aware spanning-tree collectives replacing the flat
  ``ceil(log2 P)`` formula (a hypercube pays nearest-neighbor stages;
  recursive doubling on a mesh pays the stage partner's distance);
* optional **link contention**: when constructed with
  ``contention=True``, each directed link serializes the transfer
  times of the messages crossing it, so congested links stretch
  virtual arrival times deterministically.

:class:`UniformTopology` preserves the original model bit for bit and
remains the default.  Select a topology with ``Machine(topology=...)``
(a name or an instance), the ``REPRO_TOPOLOGY`` environment variable,
or ``fdc --topology``; names take an optional ``:flags`` suffix, e.g.
``"torus2d:contention"``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Optional, Union

from ..settings import Settings
from .costmodel import tree_stages

if TYPE_CHECKING:  # pragma: no cover
    from .costmodel import CostModel

#: a directed link: (node, node) where a node is a rank int or a
#: switch label tuple like ("sw", level, index) for indirect networks
Link = tuple


class Topology:
    """Interface + shared arithmetic for interconnect topologies."""

    #: registry name ("uniform", "hypercube", ...)
    name = "?"

    def __init__(self, nprocs: int, contention: bool = False) -> None:
        self.nprocs = nprocs
        self.contention = contention

    # -- structure -----------------------------------------------------

    def hops(self, src: int, dst: int) -> int:
        """Number of links between *src* and *dst* (>= 1 when distinct)."""
        raise NotImplementedError

    def link_path(self, src: int, dst: int) -> list[Link]:
        """Directed links a message traverses, in order."""
        raise NotImplementedError

    # -- timing --------------------------------------------------------

    def transfer_time(self, cost: "CostModel", nbytes: int,
                      src: int, dst: int) -> float:
        """Send-start to data-available-at-receiver latency."""
        extra = self.hops(src, dst) - 1
        if extra <= 0:
            return cost.transfer_time(nbytes)
        return cost.transfer_time(nbytes) + extra * cost.hop

    def collective_cost(self, cost: "CostModel", nprocs: int,
                        nbytes: int) -> float:
        """Spanning-tree broadcast/reduce over *nprocs* ranks."""
        return tree_stages(nprocs) * (cost.alpha + cost.beta * nbytes)

    def barrier_cost(self, cost: "CostModel", nprocs: int) -> float:
        return tree_stages(nprocs) * cost.alpha

    # -- misc ----------------------------------------------------------

    @property
    def is_uniform(self) -> bool:
        return isinstance(self, UniformTopology)

    def describe(self) -> str:
        return self.name + (":contention" if self.contention else "")

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{type(self).__name__}(P={self.nprocs}, {self.describe()})"


class UniformTopology(Topology):
    """The original model: every pair one hop apart, flat log2 trees.

    Bit-identical to the pre-topology cost model (``transfer_time``
    delegates straight to the :class:`CostModel` linear formula).
    """

    name = "uniform"

    def hops(self, src: int, dst: int) -> int:
        return 1 if src != dst else 0

    def link_path(self, src: int, dst: int) -> list[Link]:
        return [(src, dst)] if src != dst else []

    def transfer_time(self, cost: "CostModel", nbytes: int,
                      src: int, dst: int) -> float:
        return cost.transfer_time(nbytes)


class HypercubeTopology(Topology):
    """The paper's iPSC/860: ranks are corners of a d-cube.

    Dimension-ordered (e-cube) routing: the path flips differing
    address bits lowest-first; the hop count is the Hamming distance.
    Collectives pay exactly ``d`` nearest-neighbor stages — the
    dimension-exchange algorithm — so their cost matches the flat tree
    on power-of-two P.
    """

    name = "hypercube"

    def __init__(self, nprocs: int, contention: bool = False) -> None:
        super().__init__(nprocs, contention)
        self.dim = tree_stages(nprocs)

    def hops(self, src: int, dst: int) -> int:
        return (src ^ dst).bit_count()

    def link_path(self, src: int, dst: int) -> list[Link]:
        path: list[Link] = []
        here = src
        diff = src ^ dst
        bit = 1
        while diff:
            if diff & 1:
                nxt = here ^ bit
                path.append((here, nxt))
                here = nxt
            diff >>= 1
            bit <<= 1
        return path

    def collective_cost(self, cost: "CostModel", nprocs: int,
                        nbytes: int) -> float:
        # dimension exchange: every stage partner is one hop away
        return tree_stages(nprocs) * (cost.alpha + cost.beta * nbytes)


def _grid_shape(nprocs: int) -> tuple[int, int]:
    """Near-square factorization of *nprocs* (rows <= cols)."""
    r = int(math.isqrt(nprocs))
    while r > 1 and nprocs % r:
        r -= 1
    return r, nprocs // max(r, 1)


class Mesh2DTopology(Topology):
    """2D mesh with X-then-Y dimension-ordered routing."""

    name = "mesh2d"
    _wrap = False

    def __init__(self, nprocs: int, contention: bool = False,
                 shape: Optional[tuple[int, int]] = None) -> None:
        super().__init__(nprocs, contention)
        if shape is None:
            shape = _grid_shape(nprocs)
        if shape[0] * shape[1] != nprocs:
            raise ValueError(
                f"mesh shape {shape} does not tile {nprocs} ranks"
            )
        self.rows, self.cols = shape

    def _rc(self, rank: int) -> tuple[int, int]:
        return divmod(rank, self.cols)

    def _axis_steps(self, a: int, b: int, n: int) -> list[int]:
        """Unit steps from coordinate *a* to *b* along an axis of *n*
        nodes (shortest wrap direction on the torus variant)."""
        if a == b:
            return []
        fwd = (b - a) % n
        back = (a - b) % n
        if self._wrap and back < fwd:
            return [-1] * back
        if self._wrap and fwd <= back:
            return [1] * fwd
        return [1] * (b - a) if b > a else [-1] * (a - b)

    def hops(self, src: int, dst: int) -> int:
        (r0, c0), (r1, c1) = self._rc(src), self._rc(dst)
        return (len(self._axis_steps(c0, c1, self.cols))
                + len(self._axis_steps(r0, r1, self.rows)))

    def link_path(self, src: int, dst: int) -> list[Link]:
        (r0, c0), (r1, c1) = self._rc(src), self._rc(dst)
        path: list[Link] = []
        r, c = r0, c0
        for step in self._axis_steps(c0, c1, self.cols):
            nc = (c + step) % self.cols
            path.append((r * self.cols + c, r * self.cols + nc))
            c = nc
        for step in self._axis_steps(r0, r1, self.rows):
            nr = (r + step) % self.rows
            path.append((r * self.cols + c, nr * self.cols + c))
            r = nr
        return path

    def _axis_stage_cost(self, cost: "CostModel", n: int,
                         nbytes: int) -> float:
        """Recursive doubling along one axis: stage k's partner sits
        ``2^k`` nodes away (wrap-aware on the torus)."""
        total = 0.0
        k = 1
        while k < n:
            dist = min(k, n - k) if self._wrap else k
            total += (cost.alpha + max(0, dist - 1) * cost.hop
                      + cost.beta * nbytes)
            k <<= 1
        return total

    def collective_cost(self, cost: "CostModel", nprocs: int,
                        nbytes: int) -> float:
        if nprocs <= 1:
            return 0.0
        return (self._axis_stage_cost(cost, self.cols, nbytes)
                + self._axis_stage_cost(cost, self.rows, nbytes))

    def barrier_cost(self, cost: "CostModel", nprocs: int) -> float:
        return self.collective_cost(cost, nprocs, 0)


class Torus2DTopology(Mesh2DTopology):
    """2D torus: the mesh with wraparound links (shortest direction)."""

    name = "torus2d"
    _wrap = True


class FatTreeTopology(Topology):
    """k-ary fat-tree: ranks are leaves under radix-*k* switches.

    A message climbs to the lowest common ancestor switch and descends,
    so ``hops = 2 * (levels above the LCA)``.  Switch nodes appear in
    link paths as ``("sw", level, index)`` labels (level 1 is the leaf
    switch row).  Collectives use the binomial tree, each stage bounded
    by the worst-case leaf-to-leaf distance actually used.
    """

    name = "fattree"

    def __init__(self, nprocs: int, contention: bool = False,
                 radix: int = 4) -> None:
        super().__init__(nprocs, contention)
        if radix < 2:
            raise ValueError("fat-tree radix must be >= 2")
        self.radix = radix
        self.levels = 1
        while radix ** self.levels < nprocs:
            self.levels += 1

    def _lca_level(self, src: int, dst: int) -> int:
        """Levels above the leaves of the lowest common ancestor."""
        lvl = 1
        a, b = src // self.radix, dst // self.radix
        while a != b:
            a //= self.radix
            b //= self.radix
            lvl += 1
        return lvl

    def hops(self, src: int, dst: int) -> int:
        if src == dst:
            return 0
        return 2 * self._lca_level(src, dst)

    def link_path(self, src: int, dst: int) -> list[Link]:
        if src == dst:
            return []
        lca = self._lca_level(src, dst)
        path: list[Link] = []
        up: object = src
        idx = src
        for lvl in range(1, lca + 1):
            idx //= self.radix
            sw = ("sw", lvl, idx)
            path.append((up, sw))
            up = sw
        down: list[Link] = []
        node: object = dst
        idx = dst
        for lvl in range(1, lca + 1):
            idx //= self.radix
            sw = ("sw", lvl, idx)
            down.append((sw, node))
            node = sw
        path.extend(reversed(down))
        return path

    def collective_cost(self, cost: "CostModel", nprocs: int,
                        nbytes: int) -> float:
        stages = tree_stages(nprocs)
        if not stages:
            return 0.0
        # stage k's partner is 2^k leaves away; distance through the
        # tree grows with the level of the common ancestor
        total = 0.0
        k = 1
        while k < nprocs:
            lca = 1
            span = self.radix
            while span < k + 1:
                span *= self.radix
                lca += 1
            dist = 2 * lca
            total += (cost.alpha + max(0, dist - 1) * cost.hop
                      + cost.beta * nbytes)
            k <<= 1
        return total

    def barrier_cost(self, cost: "CostModel", nprocs: int) -> float:
        return self.collective_cost(cost, nprocs, 0)


class LinkClock:
    """Per-directed-link occupancy for contention serialization.

    Cut-through switching: each link remembers when it next becomes
    free (virtual µs).  The message head leaves the source at *start*,
    pays ``hop_time`` per link beyond the first, and is delayed at any
    link still busy with an earlier message; each link is then occupied
    for the message's wire time from the moment the head clears it.
    With no queueing the arrival time equals the contention-free
    estimate exactly; congestion stretches it by the queueing delays.
    Updates are deterministic because the event backend issues sends
    in (clock, rank) order.
    """

    def __init__(self) -> None:
        self._free: dict[Link, float] = {}

    def traverse(self, path: Iterable[Link], start: float,
                 wire_time: float, hop_time: float = 0.0) -> float:
        """Route one message's head over *path*; returns the virtual
        time the full message is available at the destination."""
        t = start
        free = self._free
        first = True
        for link in path:
            if not first:
                t += hop_time
            t = max(t, free.get(link, 0.0))
            free[link] = t + wire_time
            first = False
        return t + wire_time


#: registry of selectable topologies
TOPOLOGIES: dict[str, type[Topology]] = {
    UniformTopology.name: UniformTopology,
    HypercubeTopology.name: HypercubeTopology,
    Mesh2DTopology.name: Mesh2DTopology,
    Torus2DTopology.name: Torus2DTopology,
    FatTreeTopology.name: FatTreeTopology,
}


def resolve_topology(
    topology: Union[None, str, Topology], nprocs: int
) -> Topology:
    """Normalize a ``topology=`` argument.

    An instance passes through (its ``nprocs`` must match); a name
    (optionally ``name:contention``) is looked up in the registry;
    ``None`` defers to ``REPRO_TOPOLOGY`` and defaults to uniform.
    """
    if isinstance(topology, Topology):
        if topology.nprocs != nprocs:
            raise ValueError(
                f"topology built for P={topology.nprocs}, "
                f"machine has P={nprocs}"
            )
        return topology
    name = Settings.from_env().topology if topology is None else topology
    name = name.strip().lower()
    contention = False
    if ":" in name:
        name, _, flags = name.partition(":")
        for flag in filter(None, flags.split(",")):
            if flag == "contention":
                contention = True
            else:
                raise ValueError(f"unknown topology flag {flag!r}")
    cls = TOPOLOGIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown topology {name!r} "
            f"(choose from {sorted(TOPOLOGIES)})"
        )
    return cls(nprocs, contention=contention)
