"""One crash-safe content-addressed store: *namespace + version + key →
payload*, with an optional in-memory tier and an optional on-disk tier.

Keys are content digests chosen by the caller, so a hit is valid by
construction and nothing is ever invalidated.  An entry is the file
``<directory>/<prefix><key><ext>``: the line ``# repro-<namespace>
<version> <prefix><key><ext>`` followed by the encoded payload.  (An
``inline_header`` namespace — generated modules — carries that line as
line 1 of the payload itself and names the bare key in it.)  The disk
tier is a pure accelerator, and this is all it does, in every namespace:

* missing file → miss;
* header mismatch (truncated, stale version, foreign file), decode
  error, payload not a ``kind``, or an ``OSError`` other than
  ``FileNotFoundError`` on read → ``corrupt += 1``, best-effort unlink,
  miss; the caller regenerates and the next ``store`` heals the entry;
* the payload is encoded *before* any file is opened; one that does
  not encode skips the disk write for that entry only;
* entries are published by :func:`atomic_write`, so readers and
  concurrent writers never see a torn file, and no temp file survives
  a failure;
* the first ``OSError`` while writing → ``degraded += 1`` and no more
  disk I/O from this instance (the memory tier keeps serving);
* nothing here raises to the caller.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
from typing import Any, Optional

#: codecs: (encode obj → bytes, decode bytes → obj)
PICKLE = (lambda obj: pickle.dumps(obj, pickle.HIGHEST_PROTOCOL),
          pickle.loads)
JSON = (lambda obj: json.dumps(obj, sort_keys=True).encode(), json.loads)
TEXT = (lambda s: s.encode("utf-8"), lambda b: b.decode("utf-8"))


#: per-process serial for temp names: ``<path>.<pid>.<n>.tmp`` is unique
#: among live writers without drawing a random name
_serial = itertools.count()
_EXCL = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _open_temp(path: str) -> tuple[int, str]:
    """A new temp file beside *path*, created exclusively; the directory
    is made only when the open says it is missing."""
    while True:
        tmp = f"{path}.{os.getpid()}.{next(_serial)}.tmp"
        try:
            return os.open(tmp, _EXCL, 0o600), tmp
        except FileExistsError:  # left by a dead writer with our pid
            continue
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            return os.open(tmp, _EXCL, 0o600), tmp


def atomic_write(path: str, data: bytes) -> None:
    """Publish *data* at *path* all-or-nothing (creating its directory);
    raises ``OSError`` with no temp file left behind."""
    fd, tmp = _open_temp(path)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Cas:
    """See the module docstring for the behaviour table."""

    def __init__(self, namespace: str, version: str, prefix: str,
                 ext: str, codec: tuple, kind: type = object,
                 directory: Optional[str] = None, memory: bool = True,
                 inline_header: bool = False) -> None:
        self._tag = f"# repro-{namespace} {version} "
        self._prefix, self._ext = prefix, ext
        (self._dumps, self._loads), self._kind = codec, kind
        self._inline = inline_header
        #: an empty string means "no disk tier"
        self.directory = directory or None
        self.memory: Optional[dict] = {} if memory else None
        #: set by the first failed write; disk tier off from then on
        self.degraded = False
        self.counters = {"hits": 0, "misses": 0, "disk_hits": 0,
                         "stores": 0, "corrupt": 0, "degraded": 0}

    def path(self, key: str) -> str:
        return os.path.join(self.directory,
                            self._prefix + key + self._ext)

    def header(self, key: str) -> bytes:
        name = key if self._inline else self._prefix + key + self._ext
        return (self._tag + name + "\n").encode()

    def stats(self) -> dict:
        return dict(self.counters)

    def load(self, key: str) -> Optional[Any]:
        memory = self.memory
        if memory is not None:
            hit = memory.get(key)
            if hit is not None:
                self.counters["hits"] += 1
                return hit
        if self.directory is not None and not self.degraded:
            hit = self._disk_read(key)
            if hit is not None:
                if memory is not None:
                    memory[key] = hit
                self.counters["hits"] += 1
                self.counters["disk_hits"] += 1
                return hit
        self.counters["misses"] += 1
        return None

    def store(self, key: str, obj: Any) -> None:
        if self.memory is not None:
            self.memory[key] = obj
        self.counters["stores"] += 1
        if self.directory is None or self.degraded:
            return
        try:
            data = self._dumps(obj)
        except Exception:
            return  # this payload's problem, not the directory's
        if not self._inline:
            data = self.header(key) + data
        try:
            atomic_write(self.path(key), data)
        except OSError:
            self.counters["degraded"] += 1
            self.degraded = True

    def discard(self, key: str) -> None:
        """Count the disk entry for *key* as corrupt and drop it (also
        for callers whose own validation rejected a loaded payload)."""
        self.counters["corrupt"] += 1
        try:
            os.unlink(self.path(key))
        except OSError:
            pass

    def _disk_read(self, key: str) -> Optional[Any]:
        header = self.header(key)
        try:
            with open(self.path(key), "rb") as fh:
                data = fh.read()
            if not data.startswith(header):
                raise ValueError("truncated, stale or foreign header")
            obj = self._loads(data if self._inline else data[len(header):])
            if not isinstance(obj, self._kind):
                raise ValueError("wrong payload type")
            return obj
        except FileNotFoundError:
            return None
        except Exception:
            return self.discard(key)
