"""Disk cache for generated node programs, one entry per procedure.

Layout: one ``.py`` file per *unit key* under ``$REPRO_CODEGEN_CACHE``
(default ``~/.cache/repro-codegen``; empty: no disk tier)::

    ~/.cache/repro-codegen/
        a3f9…c1-4-vec.py
        07be…5d-4-vec.py

The unit key (:func:`unit_key`) covers everything a procedure's
generated text depends on: the generator version, ``nprocs`` (the rank
classes), ``vectorize``, whether the procedure itself may block, for
every procedure it calls or references that procedure's kind and
whether *it* may block, and the compiled procedure itself.  The stem is
``<unit key>-<nprocs>-<vec|novec>``.  An entry's first line is a header
comment repeating the stem; below it come the procedure's *variants* —
one text shared by every rank class when no processor-identity guard
could be decided, else one per group of classes that print the same
text, with a demoted class recorded by its cause — and an end marker,
so a truncated entry never passes for a short procedure::

    # repro-codegen 6 a3f9…c1-4-vec
    #@ lo
    def _u_relax(rt, fr): ...
    #@ mid hi
    def _u_relax(rt, fr): ...
    #@ end

Storage is a :class:`repro.cas.Cas` namespace (``codegen``, no memory
tier — the in-process memos hold loaded functions); the disk
discipline is documented once, in DESIGN.md § 7 Stores.
"""

from __future__ import annotations

import ast
import hashlib
from typing import NamedTuple, Optional

from ..cas import TEXT, Cas
from ..settings import Settings

#: bump when the generated-code shape changes; stale entries then
#: fail the header check and regenerate
GEN_VERSION = "6"

_MARK = "\n#@ "
_END = _MARK + "end\n"
_DEMOTED = " demoted "


class Variant(NamedTuple):
    """What one or more rank classes run for a procedure: its generated
    *text*, or the *cause* it demoted to the interpreter."""

    classes: tuple[str, ...]
    text: Optional[str]
    cause: Optional[str]


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


def encode_entry(store: Cas, stem: str, variants: list[Variant]) -> str:
    """The entry *store* keeps for *stem* (the caller resolved the store
    once, not once per procedure)."""
    out = [entry_header(stem, store)]
    for v in variants:
        names = " ".join(v.classes)
        out.append(f"{_MARK}{names}{_DEMOTED}{v.cause!r}" if v.text is None
                   else f"{_MARK}{names}\n{v.text}")
    return "".join(out) + _END


def decode_entry(payload: str) -> list[Variant]:
    """Inverse of :func:`encode_entry`; raises on anything else (the
    header was checked by the store)."""
    if not payload.endswith(_END):
        raise ValueError("truncated entry")
    variants = []
    for chunk in payload[:-len(_END)].split(_MARK)[1:]:
        head, _, text = chunk.partition("\n")
        names, demoted, cause = head.partition(_DEMOTED)
        if demoted:
            variants.append(Variant(tuple(names.split()), None,
                                    ast.literal_eval(cause)))
        else:
            variants.append(Variant(tuple(names.split()), text, None))
    return variants


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
