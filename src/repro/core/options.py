"""Compiler options and compilation modes.

The three modes are the paper's comparison axes:

* ``RTR``   — run-time resolution everywhere (Figure 3): every reference
  is guarded by ownership tests and nonlocal elements move in individual
  messages.  The no-information baseline.
* ``INTRA`` — compile-time intraprocedural compilation with *immediate
  instantiation* at procedure boundaries (Figure 12): decompositions are
  known (as if supplied by interface blocks), but the computation
  partition and communication are instantiated inside each procedure, so
  no optimization crosses a call boundary (§5.5).
* ``INTER`` — full interprocedural compilation (Figure 10): reaching
  decompositions, cloning, and delayed instantiation of partition,
  communication, and dynamic data decomposition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Mode(enum.Enum):
    RTR = "rtr"
    INTRA = "intra"
    INTER = "inter"


class DynOpt(enum.IntEnum):
    """Dynamic data decomposition optimization levels (Figure 16 a-d)."""

    NONE = 0          # remap before/after every call (16a)
    LIVE = 1          # + live decompositions: dead remaps removed,
                      #   identical live remaps coalesced (16b)
    HOIST = 2         # + loop-invariant decompositions hoisted (16c)
    KILLS = 3         # + array kills: remap dead arrays in place (16d)


@dataclass
class Options:
    """Knobs of one compilation."""

    nprocs: int = 4
    mode: Mode = Mode.INTER
    dynopt: DynOpt = DynOpt.KILLS
    #: master switches for ablation benches (INTER mode only)
    delay_communication: bool = True
    delay_partition: bool = True
    enable_cloning: bool = True
    #: abort cloning when program grows beyond this factor (§5.2:
    #: "cloning may be disabled when a threshold program growth has been
    #: exceeded, forcing run-time resolution instead")
    clone_growth_limit: float = 8.0
    #: when False (the default), a procedure whose analysis fails or
    #: that uses an unsupported construct is *demoted* to the run-time
    #: resolution compilation path instead of aborting the whole
    #: compilation — exactly the paper's fallback (§1, §4).  strict=True
    #: preserves the hard-error behavior for tests and debugging.
    strict: bool = False
    #: distribution-plan overrides applied to the parsed program before
    #: any analysis runs (a tuple of :class:`~repro.core.model.DistOverride`):
    #: every DISTRIBUTE statement naming an overridden array is rewritten
    #: to the override's specs, so a candidate layout applies without
    #: editing source (``fdc --distribute`` / the auto-tuner).
    distribute: tuple = ()


@dataclass
class CompileReport:
    """What the compiler did — asserted by tests and shown by examples."""

    mode: Mode = Mode.INTER
    nprocs: int = 0
    cloned: dict[str, list[str]] = field(default_factory=dict)
    #: procedure -> array -> distribution string
    distributions: dict[str, dict[str, str]] = field(default_factory=dict)
    #: messages vectorized at each placement (for inspection)
    comm_placements: list[str] = field(default_factory=list)
    #: machine-readable communication sites: (procedure, array, kind) —
    #: the auto-tuner's map from traffic back to tunable arrays
    comm_sites: list[tuple[str, str, str]] = field(default_factory=list)
    #: arrays that fell back to run-time resolution, with reasons
    rtr_fallbacks: list[str] = field(default_factory=list)
    #: whole procedures demoted to the run-time-resolution path after an
    #: analysis failure (strict=False graceful degradation), with reasons
    rtr_demotions: list[str] = field(default_factory=list)
    #: remap statements emitted / eliminated / hoisted / marked
    remaps_emitted: int = 0
    remaps_eliminated: int = 0
    remaps_hoisted: int = 0
    remaps_marked: int = 0
    #: overlap extents per (procedure, array): list of (lo_off, hi_off)
    overlaps: dict[tuple[str, str], list[tuple[int, int]]] = field(
        default_factory=dict
    )
    notes: list[str] = field(default_factory=list)

    def note(self, msg: str) -> None:
        self.notes.append(msg)

    def merge(self, frag: "CompileReport") -> None:
        """Fold one procedure's report fragment into the program report
        (``mode``, ``nprocs`` and ``cloned`` are whole-program facts the
        front end sets).  Merging the fragments in reverse topological
        order reproduces a sequential compilation's append order."""
        for proc, dists in frag.distributions.items():
            self.distributions[proc] = dict(dists)
        self.comm_placements += frag.comm_placements
        self.comm_sites += frag.comm_sites
        self.rtr_fallbacks += frag.rtr_fallbacks
        self.rtr_demotions += frag.rtr_demotions
        self.remaps_emitted += frag.remaps_emitted
        self.remaps_eliminated += frag.remaps_eliminated
        self.remaps_hoisted += frag.remaps_hoisted
        self.remaps_marked += frag.remaps_marked
        self.overlaps.update(frag.overlaps)
        self.notes += frag.notes
