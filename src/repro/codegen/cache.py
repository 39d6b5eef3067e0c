"""Disk cache for generated node-program modules.

Layout: one ``.py`` file per (program, options, rank class) under
``$REPRO_CODEGEN_CACHE`` (default ``~/.cache/repro-codegen``)::

    ~/.cache/repro-codegen/
        a3f9…c1-4-vec-lo.py
        a3f9…c1-4-vec-mid.py
        a3f9…c1-4-vec-hi.py

The stem is ``<sha256(program text + nprocs + vectorize + generator
version)>-<nprocs>-<vec|novec>-<class>``.  Every entry's first line is
a header comment repeating that key (``emit_module`` writes it, ``exec``
ignores it).  Storage is a :class:`repro.cas.Cas` namespace
(``codegen``, no memory tier — the in-process memo holds exec'd
modules, not sources); the disk discipline is documented once, in
DESIGN.md § 7 Stores.
"""

from __future__ import annotations

import hashlib
import os

from ..cas import TEXT, Cas

#: bump when the generated-code shape changes; stale entries then
#: fail the header check and regenerate
GEN_VERSION = "3"


def cache_dir() -> str:
    env = os.environ.get("REPRO_CODEGEN_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-codegen")


def program_key(text: str, nprocs: int, vectorize: bool) -> str:
    """Content hash covering everything the generated source depends
    on besides the rank class."""
    blob = f"{GEN_VERSION}\n{nprocs}\n{vectorize}\n{text}"
    return hashlib.sha256(blob.encode()).hexdigest()


def entry_stem(key: str, nprocs: int, vectorize: bool, cls: str) -> str:
    vec = "vec" if vectorize else "novec"
    return f"{key}-{nprocs}-{vec}-{cls}"


def entry_header(stem: str) -> str:
    """Line 1 of the entry's source: ``# repro-codegen <version> <stem>``."""
    return cas().header(stem).decode().rstrip("\n")


def entry_path(stem: str) -> str:
    return cas().path(stem)


#: one store per directory seen: ``REPRO_CODEGEN_CACHE`` may change
#: mid-process, and degradation is a property of the directory
_stores: dict[str, Cas] = {}


def cas() -> Cas:
    """The store for the current :func:`cache_dir`."""
    d = cache_dir()
    store = _stores.get(d)
    if store is None:
        store = _stores[d] = Cas("codegen", GEN_VERSION, "", ".py", TEXT,
                                 directory=d, memory=False,
                                 inline_header=True)
    return store
