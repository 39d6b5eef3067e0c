"""Candidate distribution plans and their content-addressed keys.

A :class:`Plan` is one point in the tuner's search space: a processor
count plus per-array distribution overrides
(:class:`~repro.core.model.DistOverride`).  Applying a plan to a base
:class:`~repro.core.options.Options` layers its overrides over any the
user already passed (later wins per array, matching repeated
``--distribute`` flags), so a tuned plan is always expressible as plain
CLI flags — :meth:`Plan.cli_flags` prints exactly those.

:func:`plan_key` is the evaluation-memo key from the issue's contract:
``sha256(program ‖ options ‖ plan)`` — here the program source digest
and the *applied* options tuple (which embeds the plan), plus the
simulated machine (backend, cost model, topology, faults), under a
format version.  Tuning runs over one source, options and machine
therefore share every evaluation.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, field, replace

from ..core.model import DistOverride
from ..core.options import Options

#: bump when the metrics payload or key recipe changes; old memo
#: entries then miss and regenerate
MEMO_VERSION = "2"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Plan:
    """One candidate: a processor count + distribution overrides."""

    nprocs: int
    overrides: tuple[DistOverride, ...] = ()
    #: how the search produced this plan (report text only)
    label: str = field(default="", compare=False)

    def apply(self, opts: Options) -> Options:
        """The base options with this plan layered on (plan overrides
        win per array, like a later ``--distribute`` flag)."""
        by = {ov.array: ov for ov in opts.distribute}
        for ov in self.overrides:
            by[ov.array] = ov
        dist = tuple(by[name] for name in sorted(by))
        return replace(opts, nprocs=self.nprocs, distribute=dist)

    def describe(self) -> str:
        parts = [f"P={self.nprocs}"]
        parts.extend(ov.describe() for ov in self.overrides)
        return " ".join(parts)

    def cli_flags(self) -> list[str]:
        """The ``fdc`` flags that reproduce this plan."""
        flags = ["--nprocs", str(self.nprocs)]
        for ov in self.overrides:
            flags.extend(["--distribute", ov.describe()])
        return flags


def plan_key(source: str, opts: Options, plan: Plan,
             scheduler: str = "event", cost: str = "ipsc860",
             topology: str = "uniform", faults=None) -> str:
    """Content address of one evaluation: program ‖ options ‖ plan
    (via the applied options, which embed the plan) ‖ the machine
    (backend, cost, topology, faults), under :data:`MEMO_VERSION`."""
    applied = plan.apply(opts)
    return _digest("|".join([
        MEMO_VERSION,
        _digest(source),
        repr(astuple(applied)),
        scheduler,
        str(cost),
        topology,
        repr(faults),
    ]))
