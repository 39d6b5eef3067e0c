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
from typing import Optional

from ..cas import PICKLE, Cas
from ..core.recompile import (  # noqa: F401  (re-exported)
    ProcSummary,
    opts_fingerprint,
    store_opts_fingerprint,
)

#: bump when ProcSummary's pickled shape changes; old entries then fail
#: the header check and regenerate
STORE_VERSION = "2"


class SummaryStore(Cas):
    """Two-tier (memory + optional disk) summary store."""

    def __init__(self, directory: Optional[str] = None) -> None:
        super().__init__(
            "summary", STORE_VERSION, "proc-", ".pkl", PICKLE,
            kind=ProcSummary, directory=directory)

    @staticmethod
    def key(opts_fp: str, src_fp: str, in_fp: str) -> str:
        return hashlib.sha256(
            f"{STORE_VERSION}|{opts_fp}|{src_fp}|{in_fp}".encode()
        ).hexdigest()
