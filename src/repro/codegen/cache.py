"""Disk cache for generated node programs, one entry per procedure.

Layout: one ``.py`` file per *unit key* under ``$REPRO_CODEGEN_CACHE``
(default ``~/.cache/repro-codegen``; empty: no disk tier)::

    ~/.cache/repro-codegen/
        a3f9…c1-4-vec.py
        07be…5d-4-vec.py

The unit key (:func:`unit_key`) covers everything a procedure's
generated text depends on: the generator version, ``nprocs`` (which
processor-identity guards fold), ``vectorize``, whether the procedure
itself may block, for every procedure it calls or references that
procedure's kind and whether *it* may block, and the compiled procedure
itself.  The stem is ``<unit key>-<nprocs>-<vec|novec>``.  An entry's
first line is a header comment repeating the stem; below it comes the
procedure's one text, which every rank runs, and an end marker, so a
truncated entry never passes for a short procedure::

    # repro-codegen 10 a3f9…c1-4-vec
    def _u_relax(rt, fr): ...
    #@ end

Storage is a :class:`repro.cas.Cas` namespace (``codegen``, no memory
tier — the in-process unit memo holds texts and loaded functions);
the disk discipline is documented once, in DESIGN.md § 7 Stores.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..cas import TEXT, Cas
from ..settings import Settings

#: bump when the generated-code shape changes; stale entries then
#: fail the header check and regenerate
GEN_VERSION = "10"

_END = "\n#@ end\n"


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def unit_key(unit_repr: str, nprocs: int, vectorize: bool, blocks: bool,
             callees: tuple[tuple[str, str, bool], ...]) -> str:
    """Content hash covering everything one procedure's generated text
    depends on.  *callees* is the sorted ``(name, kind, may block)`` row
    of every procedure this one calls or references."""
    return _digest(GEN_VERSION, str(nprocs), str(vectorize), str(blocks),
                   repr(callees), unit_repr)


def entry_stem(key: str, nprocs: int, vectorize: bool) -> str:
    vec = "vec" if vectorize else "novec"
    return f"{key}-{nprocs}-{vec}"


def entry_header(stem: str, store: Optional[Cas] = None) -> str:
    """Line 1 of the entry: ``# repro-codegen <version> <stem>``."""
    return (store or cas()).header(stem).decode().rstrip("\n")


def entry_path(stem: str) -> str:
    return cas().path(stem)


def encode_entry(store: Cas, stem: str, text: str) -> str:
    """The entry *store* keeps for *stem*: the procedure's *text* (the
    caller resolved the store once, not once per procedure)."""
    return f"{entry_header(stem, store)}\n{text}{_END}"


def decode_entry(payload: str) -> str:
    """Inverse of :func:`encode_entry`: the text; raises on a truncated
    entry (the header was checked by the store)."""
    if not payload.endswith(_END):
        raise ValueError("truncated entry")
    return payload[:-len(_END)].partition("\n")[2]


#: one store per directory seen: ``REPRO_CODEGEN_CACHE`` may change
#: mid-process, and degradation is a property of the directory
_stores: dict[Optional[str], Cas] = {}


def cas() -> Cas:
    """The store for the current ``REPRO_CODEGEN_CACHE``."""
    d = Settings.from_env().codegen_cache
    store = _stores.get(d)
    if store is None:
        store = _stores[d] = Cas("codegen", GEN_VERSION, "", ".py", TEXT,
                                 directory=d, memory=False,
                                 inline_header=True)
    return store
