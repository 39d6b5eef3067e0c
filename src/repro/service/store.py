"""Content-addressed per-procedure summary store.

One entry holds everything the §8 recompilation test lets the service
reuse for a procedure: its compiled body (with *locally numbered*
message tags 1..tag_count — the assembly phase renumbers them into the
whole-program sequence), its exports (RSD summaries, reaching
decomposition sets, overlaps, pending communication), and the fragment
of the compile report its compilation produced.

Entries are keyed by a digest of

* the store format version,
* an options fingerprint (every :class:`Options` field),
* the procedure's source fingerprint
  (:func:`~repro.core.recompile.source_fingerprint`), and
* its interprocedural-inputs fingerprint
  (:func:`~repro.core.recompile.inputs_fingerprint` — reaching facts,
  propagated constants, callee exports),

so a hit is valid by construction; there is no invalidation protocol.

Storage is a :class:`repro.cas.Cas` namespace (``summary``); the disk
discipline — atomic publish, header check, corrupt → miss, unwritable →
memory-only — is documented once, in DESIGN.md § 7 Stores.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, replace
from typing import Optional

from ..cas import PICKLE, Cas
from ..core.options import CompileReport, Options
from ..lang import ast as A

#: bump when ProcSummary's pickled shape changes; old entries then fail
#: the header check and regenerate
STORE_VERSION = "2"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def opts_fingerprint(opts: Options) -> str:
    """Fingerprint of every compilation option (any of them can change
    generated code, so all of them key the store)."""
    return _digest(repr(astuple(opts)))[:16]


def store_opts_fingerprint(opts: Options) -> str:
    """The *summary-store* options fingerprint: every option except the
    distribution-plan overrides.  Overrides rewrite DISTRIBUTE
    statements before analysis, so their whole effect is already visible
    in the per-procedure source and interprocedural-inputs fingerprints
    — excluding them here lets sibling candidate plans of one tuning run
    share the summaries of every procedure the plan change does not
    actually touch.  (The worker front-end memo keeps the full
    :func:`opts_fingerprint`: two compilations of the same source under
    different overrides are different programs.)"""
    return opts_fingerprint(replace(opts, distribute=()))


@dataclass
class ProcSummary:
    """One procedure's reusable compilation result."""

    name: str
    #: compiled body with local tags 1..tag_count
    proc: A.Procedure
    exports: object                 # ProcExports (picklable, name-keyed)
    tag_count: int
    #: the per-procedure slice of the compile report
    fragment: CompileReport


class SummaryStore(Cas):
    """Two-tier (memory + optional disk) summary store."""

    def __init__(self, directory: Optional[str] = None) -> None:
        super().__init__(
            "summary", STORE_VERSION, "proc-", ".pkl", PICKLE,
            kind=ProcSummary, directory=directory)

    @staticmethod
    def key(opts_fp: str, src_fp: str, in_fp: str) -> str:
        return _digest(f"{STORE_VERSION}|{opts_fp}|{src_fp}|{in_fp}")
