"""Shared data model of the interprocedural compilation passes.

Everything a procedure exports to its callers when compiled in reverse
topological order (§5's "collect ... for callers") lives in
:class:`ProcExports`:

* the *delayed computation partition* — uniform iteration-set
  constraints on formal parameters (§5.3);
* the *delayed communication* — nonlocal index sets not yet instantiated
  (§5.4);
* interprocedural RSD summaries of array writes/reads (used for
  dependence testing at call sites);
* the dynamic-decomposition summary sets DecompUse/Kill/Before/After
  (§6.1);
* overlap offsets (§5.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..analysis.rsd import RSD
from ..dist import Distribution
from ..dist.distribution import DimDistribution
from ..lang import ast as A
from ..lang.parser import CompileError  # noqa: F401 - re-exported


@dataclass(frozen=True)
class Constraint:
    """One iteration-set constraint: "execute only where
    ``owner_coord(sub) == my$p`` on the (single) distributed axis".

    ``var``/``off`` describe the affine form ``var + off`` when the
    subscript is loop/formal-affine; ``sub`` is the full expression used
    for guard generation.
    """

    dimdist: DimDistribution
    sub: A.Expr
    var: Optional[str]
    off: int


@dataclass
class PendingComm:
    """A nonlocal index set whose instantiation is delayed (§5.4).

    ``section`` is in the owning procedure's terms (formals symbolic).
    ``kind``:
      * ``shift`` — nearest-neighbour pattern: data at distance ``delta``
        in the distributed axis of the executing processor's own set;
      * ``bcast`` — a single owner's slice needed by all executing
        processors; ``at`` is the distributed-axis subscript expression.
    """

    array: str
    kind: str                     # "shift" | "bcast"
    axis: int                     # distributed array axis
    dimdist: DimDistribution
    section: RSD
    delta: int = 0                # for shift
    at: Optional[A.Expr] = None   # for bcast
    origin: str = ""              # provenance, for reports/tests

    def describe(self) -> str:
        if self.kind in ("shift", "pipeline"):
            return (f"{self.kind}({self.delta}) {self.array}{self.section} "
                    f"[{self.origin}]")
        from ..lang.printer import expr_str

        return (f"bcast@{expr_str(self.at)} {self.array}{self.section} "
                f"[{self.origin}]")


@dataclass
class DecompSets:
    """§6.1 summary sets, in the procedure's own (formal) terms.

    ``after[X] is None`` means "restore the caller's inherited
    decomposition" (the callee cannot know which one that is — exactly
    why instantiation is delayed to the caller).
    """

    use: set[str] = field(default_factory=set)
    kill: set[str] = field(default_factory=set)
    #: array -> distribution it must have before invoking the procedure
    before: dict[str, Distribution] = field(default_factory=dict)
    #: array -> distribution to restore after the procedure returns
    #: (None = the caller's own current distribution)
    after: dict[str, Optional[Distribution]] = field(default_factory=dict)
    #: array -> distribution the array actually has when the procedure
    #: returns (statically known cases only)
    exit: dict[str, Optional[Distribution]] = field(default_factory=dict)
    #: arrays whose first access in the procedure overwrites every
    #: element before any read (array-kill analysis, §6.3)
    full_kill: set[str] = field(default_factory=set)


@dataclass
class ProcExports:
    """Everything a compiled procedure passes up to its callers."""

    name: str
    #: the uniform procedure-level constraint (owner-computes over a
    #: formal parameter) whose instantiation is delayed to callers
    constraint: Optional[Constraint] = None
    #: delayed nonlocal index sets
    pending: list[PendingComm] = field(default_factory=list)
    #: array -> write RSD summaries (formal terms)
    writes: dict[str, list[RSD]] = field(default_factory=dict)
    #: array -> read RSD summaries (formal terms)
    reads: dict[str, list[RSD]] = field(default_factory=dict)
    decomp: DecompSets = field(default_factory=DecompSets)
    #: array -> per-axis (lo_off, hi_off) overlap offsets
    overlap_offsets: dict[str, list[tuple[int, int]]] = field(
        default_factory=dict
    )

    def __getstate__(self) -> dict:
        # without the memoised spelling (recompile.exports_fingerprint),
        # so a stored summary pickles the same whether or not a caller
        # was keyed on it
        return {k: v for k, v in self.__dict__.items()
                if k != "_fingerprint"}


# ---------------------------------------------------------------------------
# distribution-plan overrides (``fdc --distribute`` / the auto-tuner)
# ---------------------------------------------------------------------------

#: distribution kinds a user or the tuner may request per dimension
DIST_KINDS = ("block", "cyclic", "block_cyclic")


@dataclass(frozen=True)
class DistOverride:
    """One array's distribution override.

    ``specs`` is a tuple of per-dimension ``(kind, param)`` pairs in
    :class:`~repro.lang.ast.DistSpec` terms.  A single-entry tuple on a
    multi-dimensional array is *elastic*: the kind applies to every
    dimension the source program distributes, non-distributed (``:``)
    dimensions stay put — so ``a=cyclic`` turns ``distribute a(:, block)``
    into ``distribute a(:, cyclic)`` without knowing the axis.
    """

    array: str
    specs: tuple[tuple[str, Optional[int]], ...]

    @staticmethod
    def parse(text: str) -> "DistOverride":
        """Parse ``ARRAY=KIND[:k]`` or ``ARRAY=SPEC,SPEC,...`` (each SPEC
        one of ``block``, ``cyclic``, ``block_cyclic:k``, or ``:``).
        Raises ``ValueError`` with a usage-quality message."""
        if "=" not in text:
            raise ValueError(
                f"bad --distribute {text!r}: expected ARRAY=KIND[:k] "
                f"(kinds: {', '.join(DIST_KINDS)}) or ARRAY=SPEC,SPEC,..."
            )
        array, _, rhs = text.partition("=")
        array = array.strip()
        if not array.isidentifier():
            raise ValueError(
                f"bad --distribute {text!r}: {array!r} is not an array name"
            )
        if not rhs.strip():
            raise ValueError(f"bad --distribute {text!r}: empty spec")
        specs: list[tuple[str, Optional[int]]] = []
        for part in rhs.split(","):
            part = part.strip()
            if part == ":":
                specs.append(("none", None))
                continue
            kind, _, param = part.partition(":")
            kind = kind.strip().lower()
            if kind not in DIST_KINDS:
                raise ValueError(
                    f"bad --distribute {text!r}: unknown kind {kind!r} "
                    f"(expected one of {', '.join(DIST_KINDS)} or ':')"
                )
            if kind == "block_cyclic":
                if not param:
                    raise ValueError(
                        f"bad --distribute {text!r}: block_cyclic needs "
                        f"a block size, e.g. {array}=block_cyclic:4"
                    )
                try:
                    k = int(param)
                except ValueError:
                    raise ValueError(
                        f"bad --distribute {text!r}: block size "
                        f"{param!r} is not an integer"
                    ) from None
                if k < 1:
                    raise ValueError(
                        f"bad --distribute {text!r}: block size must "
                        f"be >= 1"
                    )
                specs.append((kind, k))
            else:
                if param:
                    raise ValueError(
                        f"bad --distribute {text!r}: {kind} takes no "
                        f"parameter"
                    )
                specs.append((kind, None))
        return DistOverride(array, tuple(specs))

    def describe(self) -> str:
        def one(kind, param):
            if kind == "none":
                return ":"
            if kind == "block_cyclic":
                return f"block_cyclic:{param}"
            return kind

        return f"{self.array}=" + ",".join(one(k, p) for k, p in self.specs)


def parse_distribute_args(args: list[str]) -> tuple[DistOverride, ...]:
    """Parse repeated ``--distribute`` values; later overrides of the
    same array win (the tuner refines plans that way)."""
    by_array: dict[str, DistOverride] = {}
    for a in args:
        ov = DistOverride.parse(a)
        by_array[ov.array] = ov
    return tuple(by_array.values())


def apply_dist_overrides(prog, overrides) -> set[str]:
    """Rewrite every DISTRIBUTE statement of each overridden array,
    program-wide (main *and* procedures — a phase-local DISTRIBUTE is a
    remap point, and pinning the array to one layout collapses it).

    Mutates *prog* in place and returns the names of the units whose
    text changed.  Raises :class:`CompileError` when an override names
    an array no DISTRIBUTE statement targets, or when an explicit
    per-dimension spec list does not match the statement's
    dimensionality.
    """
    rewritten: set[str] = set()
    if not overrides:
        return rewritten
    by_array = {ov.array: ov for ov in overrides}
    seen: set[str] = set()
    known: set[str] = set()
    for unit in prog.units:
        for s in A.walk_stmts(unit.body):
            if not isinstance(s, A.Distribute):
                continue
            known.add(s.name)
            ov = by_array.get(s.name)
            if ov is None:
                continue
            seen.add(s.name)
            specs = _overridden_specs(unit.name, s, ov)
            if specs != s.specs:
                rewritten.add(unit.name)
            s.specs = specs
    missing = sorted(set(by_array) - seen)
    if missing:
        raise CompileError(
            f"--distribute names unknown array(s) {', '.join(missing)}: "
            f"no DISTRIBUTE statement targets them (distributed arrays: "
            f"{', '.join(sorted(known)) or 'none'})"
        )
    return rewritten


def _overridden_specs(proc_name: str, stmt, ov: DistOverride):
    old = list(stmt.specs)
    if len(ov.specs) == 1 and len(old) > 1:
        # elastic form: retarget only the distributed dimensions
        kind, param = ov.specs[0]
        if kind == "none":
            raise CompileError(
                f"--distribute {ov.describe()}: ':' alone would "
                f"undistribute {ov.array}; spell out every dimension"
            )
        return [
            A.DistSpec(kind, param) if sp.kind != "none" else sp
            for sp in old
        ]
    if len(ov.specs) != len(old):
        raise CompileError(
            f"--distribute {ov.describe()}: {len(ov.specs)} spec(s) for "
            f"{len(old)}-dimensional DISTRIBUTE of {ov.array} in "
            f"{proc_name}"
        )
    return [A.DistSpec(kind, param) for kind, param in ov.specs]
