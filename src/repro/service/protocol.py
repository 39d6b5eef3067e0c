"""Wire protocol of the compile service.

Frames are length-prefixed JSON: a 4-byte big-endian payload length
followed by that many bytes of UTF-8 JSON.  JSON keeps the protocol
inspectable and version-tolerant; binary payloads (pickled procedures
and report pieces) travel inside it as base64 blobs.  The same framing
is used on the client socket and on the worker's stdin/stdout pipes
(the latter carry pickle payloads directly — daemon and worker are
always the same build).

A compile reply speaks procedures (:func:`pack_pieces` /
:func:`unpack_pieces`): a manifest naming each procedure's §8 store
key, and a blob only for the keys the request's ``have`` list does not
name.

Every reply carries ``ok``; failures add ``error`` (human-readable),
``kind`` (machine-readable, see below) and ``retryable``.  Retryable
failures from an overloaded daemon add ``retry_after_s`` — the 429
pattern.

Error kinds::

    bad-request     malformed or unparseable request   (not retryable)
    compile-error   the program itself does not compile (not retryable)
    deadline        per-request deadline expired        (retryable)
    overloaded      bounded queue full / request shed   (retryable)
    shutdown        daemon is stopping                  (retryable)
    internal        unexpected daemon-side failure      (retryable)
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct
import time
from dataclasses import asdict
from typing import Any, Optional

from ..core.driver import Swept
from ..core.model import DistOverride
from ..core.options import CompileReport, DynOpt, Mode, Options
from ..core.recompile import ProcSummary
from ..lang import ast as A

#: protocol revision; bump on incompatible frame/blob changes.  A daemon
#: refuses mismatched requests with ``bad-request`` so a stale client
#: degrades to in-process compilation instead of misbehaving.
PROTOCOL_VERSION = 2

#: hard ceiling on one frame — a corrupt length prefix must not make a
#: reader allocate gigabytes
MAX_FRAME = 256 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameError(Exception):
    """Framing violation: short read, oversized length, bad JSON."""


class ServiceError(Exception):
    """Structured service failure, locally raised or decoded from an
    error reply (``kind`` per the table above)."""

    def __init__(self, kind: str, message: str, *,
                 retryable: bool = False,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.retryable = retryable
        self.retry_after_s = retry_after_s


# ---------------------------------------------------------------------------
# socket framing
# ---------------------------------------------------------------------------


def encode_frame(obj: dict) -> bytes:
    payload = json.dumps(obj, separators=(",", ":")).encode()
    if len(payload) > MAX_FRAME:
        raise FrameError(f"frame too large ({len(payload)} bytes)")
    return _LEN.pack(len(payload)) + payload


def send_frame(sock: socket.socket, obj: dict) -> None:
    sock.sendall(encode_frame(obj))


def recv_frame(sock: socket.socket,
               deadline: Optional[float] = None) -> dict:
    """Read one frame; *deadline* is an absolute ``time.monotonic()``
    instant after which :class:`TimeoutError` is raised.  EOF before a
    complete frame raises :class:`FrameError`."""
    head = _recv_exact(sock, _LEN.size, deadline)
    (n,) = _LEN.unpack(head)
    if n > MAX_FRAME:
        raise FrameError(f"frame length {n} exceeds limit")
    payload = _recv_exact(sock, n, deadline)
    try:
        obj = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FrameError(f"bad frame payload: {e}") from None
    if not isinstance(obj, dict):
        raise FrameError("frame payload is not an object")
    return obj


def _recv_exact(sock: socket.socket, n: int,
                deadline: Optional[float]) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("frame read deadline expired")
            sock.settimeout(remaining)
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise FrameError(
                f"connection closed mid-frame ({len(buf)}/{n} bytes)"
            )
        buf.extend(chunk)
    return bytes(buf)


# ---------------------------------------------------------------------------
# pipe framing (worker stdin/stdout; pickle payloads)
# ---------------------------------------------------------------------------


def write_pipe_frame(fh, obj: Any) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME:
        raise FrameError(f"frame too large ({len(payload)} bytes)")
    fh.write(_LEN.pack(len(payload)) + payload)
    fh.flush()


def read_pipe_frame(fh) -> Any:
    """Blocking read of one pickle frame from a binary file object.
    Returns None on clean EOF at a frame boundary."""
    head = fh.read(_LEN.size)
    if not head:
        return None
    if len(head) < _LEN.size:
        raise FrameError("pipe closed mid-length")
    (n,) = _LEN.unpack(head)
    if n > MAX_FRAME:
        raise FrameError(f"frame length {n} exceeds limit")
    payload = fh.read(n)
    if len(payload) < n:
        raise FrameError(f"pipe closed mid-frame ({len(payload)}/{n})")
    return pickle.loads(payload)


# ---------------------------------------------------------------------------
# wire (de)serialization
# ---------------------------------------------------------------------------


def options_to_wire(opts: Options) -> dict:
    d = asdict(opts)
    d["mode"] = opts.mode.value
    d["dynopt"] = int(opts.dynopt)
    return d


def options_from_wire(d: dict) -> Options:
    kw = dict(d)
    kw["mode"] = Mode(kw["mode"])
    kw["dynopt"] = DynOpt(kw["dynopt"])
    # asdict turned each DistOverride into a dict and JSON each spec
    # pair into a list
    kw["distribute"] = tuple(
        DistOverride(ov["array"], tuple((k, p) for k, p in ov["specs"]))
        for ov in kw.get("distribute", ()))
    return Options(**kw)


def pack_blob(obj: Any) -> str:
    """Pickle *obj* into a base64 string for embedding in a JSON frame."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def unpack_blob(s: str) -> Any:
    return pickle.loads(base64.b64decode(s.encode("ascii")))


def pack_pieces(swept: Swept, have: set) -> dict:
    """A compile reply's payload: ``manifest`` (the unit order, the
    reverse topological order and, in that order, each procedure's §8
    store key), ``head`` (the pickled initial distributions and front-end
    report) and ``blobs`` — a pickled ``(name, proc, tag_count,
    fragment)``, tags still local, for each key not in *have*."""
    keys = [swept.keys[name] for name in swept.order]
    blobs = {}
    for name, key in zip(swept.order, keys):
        if key not in have:
            s = swept.summaries[name]
            blobs[key] = pack_blob((name, s.proc, s.tag_count, s.fragment))
    return {"manifest": {"units": swept.units, "order": swept.order,
                         "keys": keys},
            "head": pack_blob((swept.initial_dists, swept.report)),
            "blobs": blobs}


def _names(x: Any) -> list[str]:
    if not isinstance(x, list) or not all(isinstance(s, str) for s in x):
        raise FrameError("manifest entry is not a list of strings")
    return x


def unpack_pieces(reply: dict, held: dict) -> tuple[Swept, int]:
    """The pieces of a :func:`pack_pieces` reply, each procedure from its
    shipped blob or else from *held* (key -> summary, what the request's
    ``have`` named), and how many were shipped.  A key neither shipped
    nor held, or anything undecodable or of the wrong shape, raises
    :class:`FrameError`."""
    try:
        m = reply["manifest"]
        units, order, keys = (_names(m["units"]), _names(m["order"]),
                              _names(m["keys"]))
        if len(keys) != len(order) or sorted(units) != sorted(order) \
                or len(set(order)) != len(order):
            raise FrameError("inconsistent manifest")
        initial, report = unpack_blob(reply["head"])
        if not isinstance(initial, dict) \
                or not isinstance(report, CompileReport):
            raise FrameError("head is not (initial dists, report)")
        blobs = reply["blobs"]
        summaries, shipped = {}, 0
        for name, key in zip(order, keys):
            if key in blobs:
                got = unpack_blob(blobs[key])
                if not (isinstance(got, tuple) and len(got) == 4
                        and got[0] == name
                        and isinstance(got[1], A.Procedure)
                        and type(got[2]) is int
                        and isinstance(got[3], CompileReport)):
                    raise FrameError(f"blob for {name} is not "
                                     f"(name, proc, tag_count, fragment)")
                s = ProcSummary(name, got[1], None, got[2], got[3])
                shipped += 1
            elif key in held and held[key].name == name:
                s = held[key]
            else:
                raise FrameError(f"{name}: key neither shipped nor held")
            summaries[name] = s
    except FrameError:
        raise
    except Exception as e:
        raise FrameError(f"undecodable compile reply: "
                         f"{type(e).__name__}: {e}") from None
    return Swept(units, order, dict(zip(order, keys)), summaries,
                 report, initial), shipped


def error_reply(kind: str, message: str, *, retryable: bool,
                retry_after_s: Optional[float] = None) -> dict:
    rep = {"ok": False, "kind": kind, "error": message,
           "retryable": retryable, "v": PROTOCOL_VERSION}
    if retry_after_s is not None:
        rep["retry_after_s"] = retry_after_s
    return rep
