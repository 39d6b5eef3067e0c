"""Disk cache for generated node-program modules.

Layout: one ``.py`` file per (program, options, rank class) under
``$REPRO_CODEGEN_CACHE`` (default ``~/.cache/repro-codegen``)::

    ~/.cache/repro-codegen/
        a3f9…c1-4-vec-lo.py
        a3f9…c1-4-vec-mid.py
        a3f9…c1-4-vec-hi.py

The stem is ``<sha256(program text + nprocs + vectorize + generator
version)>-<nprocs>-<vec|novec>-<class>``.  Every entry's first line is
a header comment repeating that key; :func:`load` refuses any file
whose header does not match, so a tampered, truncated, or
version-stale entry is silently ignored and regenerated.  All disk
failures are soft — the cache is a pure accelerator.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from typing import Optional

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
    return f"# repro-codegen {GEN_VERSION} {stem}"


def entry_path(stem: str) -> str:
    return os.path.join(cache_dir(), stem + ".py")


def load(stem: str) -> Optional[str]:
    """Return the cached source, or None if missing/unreadable/poisoned."""
    try:
        with open(entry_path(stem), "r", encoding="utf-8") as fh:
            src = fh.read()
    except OSError:
        return None
    first = src.split("\n", 1)[0]
    if first != entry_header(stem):
        return None  # tampered or generator-version mismatch
    return src


def store(stem: str, src: str) -> None:
    """Atomically write an entry; failures are swallowed (the cache
    never makes a run fail)."""
    try:
        d = cache_dir()
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(src)
            os.replace(tmp, entry_path(stem))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError:
        pass
