"""Distribution functions: BLOCK / CYCLIC / BLOCK_CYCLIC index math.

A :class:`Distribution` is the compiler's *distribution function* for one
array (paper §5.3): it knows, for every dimension, how global indices map
to processors and which global indices each processor owns (the *local
index set*, an RSD).

Multi-dimensional distributions place processors on a grid with one axis
per distributed dimension (the paper's examples distribute a single
dimension, so the grid is usually ``(P,)``), linearized row-major into
processor ranks ``0 .. P-1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis.rsd import EMPTY_RANGE, RSD, Range
from ..lang import ast as A


@dataclass(frozen=True)
class DimDistribution:
    """Distribution of one array dimension.

    Attributes
    ----------
    kind:
        "block" | "cyclic" | "block_cyclic" | "none".
    lo, hi:
        Global (declared) bounds of this dimension.
    nprocs:
        Number of processors assigned along this dimension (1 for
        ``none``).
    block:
        Block size: ``ceil(n / nprocs)`` for block, the user parameter
        for block_cyclic, 1 for cyclic, the full extent for none.
    """

    kind: str
    lo: int
    hi: int
    nprocs: int
    block: int

    @staticmethod
    def make(kind: str, lo: int, hi: int, nprocs: int,
             param: Optional[int] = None) -> "DimDistribution":
        n = hi - lo + 1
        if kind == "none" or nprocs == 1:
            return DimDistribution("none", lo, hi, 1, n)
        if kind == "block":
            return DimDistribution("block", lo, hi, nprocs,
                                   -(-n // nprocs))
        if kind == "cyclic":
            return DimDistribution("cyclic", lo, hi, nprocs, 1)
        if kind == "block_cyclic":
            if not param or param < 1:
                raise ValueError("block_cyclic needs a block size >= 1")
            return DimDistribution("block_cyclic", lo, hi, nprocs, param)
        raise ValueError(f"unknown distribution kind {kind!r}")

    @property
    def distributed(self) -> bool:
        return self.kind != "none"

    def owner_coord(self, g: int) -> int:
        """Grid coordinate of the processor owning global index ``g``."""
        if not (self.lo <= g <= self.hi):
            raise IndexError(f"index {g} outside [{self.lo}:{self.hi}]")
        off = g - self.lo
        if self.kind == "none":
            return 0
        if self.kind == "block":
            return min(off // self.block, self.nprocs - 1)
        if self.kind == "cyclic":
            return off % self.nprocs
        return (off // self.block) % self.nprocs  # block_cyclic

    def local_set(self, coord: int) -> list[Range]:
        """Global indices owned by grid coordinate ``coord`` as ranges.

        block and cyclic give a single range (contiguous / strided);
        block_cyclic gives one range per owned block.
        """
        if not (0 <= coord < self.nprocs):
            raise IndexError(f"coord {coord} outside grid of {self.nprocs}")
        if self.kind == "none":
            return [Range(self.lo, self.hi)]
        if self.kind == "block":
            lo = self.lo + coord * self.block
            hi = min(self.hi, lo + self.block - 1)
            return [Range(lo, hi)] if lo <= hi else [EMPTY_RANGE]
        if self.kind == "cyclic":
            lo = self.lo + coord
            if lo > self.hi:
                return [EMPTY_RANGE]
            return [Range(lo, self.hi, self.nprocs)]
        # block_cyclic: blocks coord, coord+nprocs, ...
        out: list[Range] = []
        b = self.block
        start = self.lo + coord * b
        stride = b * self.nprocs
        while start <= self.hi:
            out.append(Range(start, min(self.hi, start + b - 1)))
            start += stride
        return out or [EMPTY_RANGE]

    def owner_coord_expr(self, idx: A.Expr) -> A.Expr:
        """AST expression computing ``owner_coord`` of a symbolic index
        (used by generated run-time-resolution and broadcast code)."""
        off = A.sub(idx, A.Num(self.lo))
        if self.kind == "none":
            return A.Num(0)
        if self.kind == "block":
            return A.CallExpr(
                "min",
                (
                    A.BinOp("/", off, A.Num(self.block)),
                    A.Num(self.nprocs - 1),
                ),
            )
        if self.kind == "cyclic":
            return A.CallExpr("mod", (off, A.Num(self.nprocs)))
        return A.CallExpr(
            "mod",
            (A.BinOp("/", off, A.Num(self.block)), A.Num(self.nprocs)),
        )

    def describe(self) -> str:
        if self.kind == "none":
            return ":"
        if self.kind == "block_cyclic":
            return f"block_cyclic({self.block})"
        return self.kind


@dataclass(frozen=True)
class Distribution:
    """Whole-array distribution: one :class:`DimDistribution` per
    dimension plus the processor-grid shape."""

    dims: tuple[DimDistribution, ...]
    nprocs: int

    # -- construction ----------------------------------------------------

    @staticmethod
    def from_specs(
        specs: Sequence[A.DistSpec],
        bounds: Sequence[tuple[int, int]],
        nprocs: int,
    ) -> "Distribution":
        """Build from DISTRIBUTE specs and per-dim global bounds.

        Processors are assigned to the distributed dimensions by
        factoring ``nprocs`` across them (single distributed dim — the
        common case — gets all processors).
        """
        if len(specs) != len(bounds):
            raise ValueError(
                f"{len(specs)} specs for {len(bounds)}-dimensional array"
            )
        dist_axes = [i for i, s in enumerate(specs) if s.kind != "none"]
        grid = factor_grid(nprocs, len(dist_axes))
        dims: list[DimDistribution] = []
        gi = 0
        for i, (spec, (lo, hi)) in enumerate(zip(specs, bounds)):
            if spec.kind == "none":
                dims.append(DimDistribution.make("none", lo, hi, 1))
            else:
                dims.append(
                    DimDistribution.make(spec.kind, lo, hi, grid[gi], spec.param)
                )
                gi += 1
        return Distribution(tuple(dims), nprocs)

    @staticmethod
    def replicated(bounds: Sequence[tuple[int, int]], nprocs: int) -> "Distribution":
        """All dims ``none``: every processor owns the whole array."""
        dims = tuple(
            DimDistribution.make("none", lo, hi, 1) for lo, hi in bounds
        )
        return Distribution(dims, nprocs)

    # -- queries -----------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def specs(self) -> tuple[A.DistSpec, ...]:
        out = []
        for d in self.dims:
            if d.kind == "none":
                out.append(A.DistSpec("none"))
            elif d.kind == "block_cyclic":
                out.append(A.DistSpec("block_cyclic", d.block))
            else:
                out.append(A.DistSpec(d.kind))
        return tuple(out)

    @property
    def is_replicated(self) -> bool:
        cached = self.__dict__.get("_is_replicated")
        if cached is None:
            cached = all(not d.distributed for d in self.dims)
            object.__setattr__(self, "_is_replicated", cached)
        return cached

    def distributed_axes(self) -> list[int]:
        return [i for i, d in enumerate(self.dims) if d.distributed]

    def grid_shape(self) -> tuple[int, ...]:
        return tuple(d.nprocs for d in self.dims if d.distributed)

    def coords_of_rank(self, rank: int) -> tuple[int, ...]:
        """Grid coordinates (one per distributed axis, row-major)."""
        shape = self.grid_shape()
        coords = []
        for extent in reversed(shape):
            coords.append(rank % extent)
            rank //= extent
        return tuple(reversed(coords))

    def rank_of_coords(self, coords: Sequence[int]) -> int:
        shape = self.grid_shape()
        r = 0
        for c, extent in zip(coords, shape):
            r = r * extent + c
        return r

    def owner(self, indices: Sequence[int]) -> int:
        """Processor rank owning the element at global ``indices``.

        Run-time resolution evaluates this once per element per
        processor, so the index math is compiled to a closure on first
        use and cached on the instance (the dataclass is frozen; the
        cache never enters ``__eq__``/``__hash__``, which compare fields
        only).
        """
        fn = self.__dict__.get("_owner_fn")
        if fn is None:
            fn = self._compile_owner()
            object.__setattr__(self, "_owner_fn", fn)
        return fn(indices)

    def __getstate__(self) -> dict:
        # the caches above are rebuilt on demand: a distribution shared
        # through the compiler's memos pickles the same whether or not a
        # run has compiled its owner closure
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}

    def _compile_owner(self):
        parts = []  # (axis, per-dim coordinate closure, grid extent)
        for axis, d in enumerate(self.dims):
            if d.distributed:
                parts.append((axis, _coord_closure(d), d.nprocs))
        if not parts:
            return lambda indices: 0
        if len(parts) == 1:
            axis, coord, _ = parts[0]
            return lambda indices: coord(indices[axis])

        def owner(indices: Sequence[int]) -> int:
            r = 0
            for axis, coord, extent in parts:
                r = r * extent + coord(indices[axis])
            return r

        return owner

    def owns(self, rank: int, indices: Sequence[int]) -> bool:
        if self.is_replicated:
            return True
        return self.owner(indices) == rank

    def local_index_set(self, rank: int) -> RSD:
        """The local index set of processor ``rank`` as a single RSD
        (block_cyclic dims use their first owned block extended — callers
        needing exact block_cyclic sets use :meth:`local_index_sets`)."""
        sets = self.local_index_sets(rank)
        if len(sets) == 1:
            return sets[0]
        # summary RSD covering all pieces: per-dim hull
        dims: list[Range] = []
        for axis in range(self.rank):
            los = [s.dims[axis].lo for s in sets]   # type: ignore[union-attr]
            his = [s.dims[axis].hi for s in sets]   # type: ignore[union-attr]
            dims.append(Range(min(los), max(his)))
        return RSD(tuple(dims))

    def local_index_sets(self, rank: int) -> list[RSD]:
        """Exact local index sets (cartesian product of per-dim pieces)."""
        coords = self.coords_of_rank(rank)
        per_dim: list[list[Range]] = []
        ci = 0
        for d in self.dims:
            if d.distributed:
                per_dim.append(d.local_set(coords[ci]))
                ci += 1
            else:
                per_dim.append(d.local_set(0))
        out = [RSD(())]
        for pieces in per_dim:
            out = [
                RSD(prev.dims + (piece,)) for prev in out for piece in pieces
            ]
        return [r for r in out if not r.empty] or [
            RSD(tuple(EMPTY_RANGE for _ in self.dims))
        ]

    def owners_of(self, section: RSD) -> set[int]:
        """Set of processor ranks owning at least one element of a
        *numeric* section."""
        per_axis: list[set[int]] = []
        for d, dim in zip(self.dims, section.dims):
            if not d.distributed:
                continue
            if not isinstance(dim, Range):
                # symbolic: every coordinate may own part of it
                per_axis.append(set(range(d.nprocs)))
                continue
            coords = set()
            if dim.count <= 4 * d.nprocs * max(d.block, 1):
                for g in dim.iter():
                    coords.add(d.owner_coord(g))
            else:
                coords = set(range(d.nprocs))
            per_axis.append(coords)
        ranks = {0} if not per_axis else set()
        if per_axis:
            import itertools

            for combo in itertools.product(*per_axis):
                ranks.add(self.rank_of_coords(combo))
        return ranks

    def same_mapping(self, other: "Distribution") -> bool:
        """True when the two distributions place every element on the
        same processor (used to skip no-op remaps)."""
        return self.dims == other.dims and self.nprocs == other.nprocs

    def describe(self) -> str:
        return "(" + ", ".join(d.describe() for d in self.dims) + ")"

    def __str__(self) -> str:
        return self.describe()


def _coord_closure(d: DimDistribution):
    """Branch-free per-call coordinate function for one distributed dim
    (same math and bounds errors as :meth:`DimDistribution.owner_coord`,
    with the kind dispatch done once)."""
    lo, hi, P, blk = d.lo, d.hi, d.nprocs, d.block
    if d.kind == "block":
        last = P - 1

        def coord(g: int) -> int:
            if g < lo or g > hi:
                raise IndexError(f"index {g} outside [{lo}:{hi}]")
            q = (g - lo) // blk
            return q if q < last else last

    elif d.kind == "cyclic":
        def coord(g: int) -> int:
            if g < lo or g > hi:
                raise IndexError(f"index {g} outside [{lo}:{hi}]")
            return (g - lo) % P

    else:  # block_cyclic
        def coord(g: int) -> int:
            if g < lo or g > hi:
                raise IndexError(f"index {g} outside [{lo}:{hi}]")
            return ((g - lo) // blk) % P

    return coord


def factor_grid(nprocs: int, naxes: int) -> tuple[int, ...]:
    """Factor ``nprocs`` into a near-balanced grid over ``naxes`` axes.

    ``naxes == 0`` gives the empty grid; ``naxes == 1`` gives ``(P,)``.
    """
    if naxes == 0:
        return ()
    if naxes == 1:
        return (nprocs,)
    # greedy: repeatedly split off the largest factor <= nprocs**(1/axes)
    extents = []
    remaining = nprocs
    for axis in range(naxes - 1):
        target = round(remaining ** (1.0 / (naxes - axis)))
        f = 1
        for cand in range(target, 0, -1):
            if remaining % cand == 0:
                f = cand
                break
        extents.append(f)
        remaining //= f
    extents.append(remaining)
    return tuple(extents)
