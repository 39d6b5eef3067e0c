"""Compile-service client with graceful in-process fallback.

Server resolution order (``resolve_server``):

1. an explicit argument (``fdc --server WHERE``),
2. the ``REPRO_SERVER`` environment variable,
3. off (compile in-process).

``WHERE`` is ``off`` (disable; any switch-off spelling), ``auto`` (the
per-user default socket ``$TMPDIR/repro-fdc-<uid>.sock``) or a path.

``compile_with_fallback`` is the entry point the CLI uses: it sends the
compile to the daemon and, on *any* infrastructure failure — daemon
unreachable, connection dying mid-request, malformed or oversized
reply, retryable server errors after bounded retries — falls back to
the in-process :func:`~repro.core.driver.compile_program`.  The result
is therefore byte-identical whether or not the daemon is healthy; only
``compile-error`` replies (the program itself is at fault) surface as
:class:`~repro.core.model.CompileError` exactly like a local compile.
Every fallback is recorded in the module counters
(:func:`client_stats`) and as a ``service.fallback`` trace decision.
"""

from __future__ import annotations

import os
import socket
import tempfile
import time
from typing import Optional

from ..core.driver import CompiledProgram, compile_program
from ..core.model import CompileError
from ..core.options import Options
from ..obs.tracer import resolve_trace
from ..settings import Settings, switch
from .protocol import (
    PROTOCOL_VERSION,
    FrameError,
    ServiceError,
    options_to_wire,
    recv_frame,
    send_frame,
    unpack_blob,
)

#: process-wide client counters (surfaced by tests and ``fdc --report``)
_stats = {"remote": 0, "fallback": 0, "retries": 0, "local": 0}


def client_stats() -> dict:
    return dict(_stats)


def default_socket_path() -> str:
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-fdc-{uid}.sock")


def resolve_server(arg: Optional[str] = None) -> Optional[str]:
    """Resolve the server socket path: explicit *arg* wins, then
    ``REPRO_SERVER``; empty or off disables, ``auto`` names the
    per-user default socket."""
    value = (Settings.from_env().server if arg is None else arg).strip()
    if not switch(value, False):
        return None
    if value.lower() == "auto":
        return default_socket_path()
    return value


class CompileClient:
    """One-request-per-connection client of :class:`CompileDaemon`."""

    def __init__(self, path: str, timeout_s: float = 60.0) -> None:
        self.path = path
        self.timeout_s = timeout_s

    def request(self, obj: dict,
                timeout_s: Optional[float] = None) -> dict:
        """Send one frame, read one reply.  Raises ``OSError`` family
        on connection trouble, :class:`FrameError` on protocol
        corruption, :class:`TimeoutError` on deadline expiry, and
        :class:`ServiceError` for structured server-side failures."""
        budget = timeout_s if timeout_s is not None else self.timeout_s
        deadline = time.monotonic() + budget
        obj = dict(obj)
        obj.setdefault("v", PROTOCOL_VERSION)
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(min(budget, 10.0))
            sock.connect(self.path)
            send_frame(sock, obj)
            reply = recv_frame(sock, deadline)
        finally:
            try:
                sock.close()
            except OSError:
                pass
        if not isinstance(reply, dict):
            raise FrameError("reply is not an object")
        if not reply.get("ok"):
            raise ServiceError(
                reply.get("kind", "internal"),
                str(reply.get("error", "unknown server error")),
                retryable=bool(reply.get("retryable")),
                retry_after_s=reply.get("retry_after_s"),
            )
        return reply

    # -- ops ----------------------------------------------------------------

    def ping(self, timeout_s: float = 5.0) -> dict:
        return self.request({"op": "ping"}, timeout_s=timeout_s)

    def stats(self, timeout_s: float = 5.0) -> dict:
        return self.request({"op": "stats"},
                            timeout_s=timeout_s)["stats"]

    def metrics(self, timeout_s: float = 5.0) -> dict:
        """The daemon's metrics: ``{"metrics": snapshot,
        "prometheus": text}``."""
        reply = self.request({"op": "metrics"}, timeout_s=timeout_s)
        return {"metrics": reply.get("metrics", {}),
                "prometheus": reply.get("prometheus", "")}

    def shutdown(self, timeout_s: float = 5.0) -> dict:
        return self.request({"op": "shutdown"}, timeout_s=timeout_s)

    def compile(self, source: str, opts: Optional[Options] = None,
                deadline_s: Optional[float] = None,
                speculative: bool = False) -> CompiledProgram:
        """Compile remotely.  The reply's pickled program is validated;
        anything that is not a :class:`CompiledProgram` raises
        :class:`FrameError` (and the fallback path treats it as an
        infrastructure failure)."""
        req = {
            "op": "compile",
            "source": source,
            "opts": options_to_wire(opts or Options()),
            "speculative": speculative,
        }
        if deadline_s is not None:
            req["deadline_s"] = deadline_s
        # the read budget outlives the server-side deadline so the
        # daemon's structured "deadline" reply can still arrive
        budget = deadline_s + 5.0 if deadline_s is not None \
            else self.timeout_s
        reply = self.request(req, timeout_s=budget)
        try:
            compiled = unpack_blob(reply["blob"])
        except Exception as e:
            raise FrameError(f"undecodable compile reply: {e}") from None
        if not isinstance(compiled, CompiledProgram):
            raise FrameError("compile reply is not a CompiledProgram")
        return compiled


def compile_with_fallback(
    source: str,
    opts: Optional[Options] = None,
    server: Optional[str] = None,
    trace=None,
    deadline_s: Optional[float] = None,
    speculative: bool = False,
    retries: int = 1,
) -> tuple[CompiledProgram, dict]:
    """Compile via the resolved server, falling back to in-process
    compilation on any infrastructure failure.  Returns ``(compiled,
    info)`` where ``info`` records ``used`` (``server``/``local``),
    the fallback ``cause`` when any, and retry counts."""
    path = resolve_server(server)
    tracer = resolve_trace(trace)
    if path is None:
        _stats["local"] += 1
        return compile_program(source, opts, trace=tracer), \
            {"used": "local", "cause": "no server configured"}
    client = CompileClient(path)
    cause = None
    attempts = 0
    while attempts <= retries:
        attempts += 1
        try:
            compiled = client.compile(source, opts,
                                      deadline_s=deadline_s,
                                      speculative=speculative)
            _stats["remote"] += 1
            return compiled, {"used": "server", "attempts": attempts}
        except ServiceError as e:
            if e.kind == "compile-error":
                # deterministic program fault: surface it exactly like
                # a local compile would, never mask it with a retry
                raise CompileError(str(e)) from None
            cause = f"{e.kind}: {e}"
            if e.retryable and attempts <= retries:
                _stats["retries"] += 1
                time.sleep(min(e.retry_after_s or 0.05, 0.5))
                continue
            break
        except (OSError, FrameError, TimeoutError) as e:
            cause = f"{type(e).__name__}: {e}"
            break
    _stats["fallback"] += 1
    if tracer is not None:
        tracer.decision("service.fallback", cause=cause or "unknown")
    return compile_program(source, opts, trace=tracer), \
        {"used": "local", "cause": cause, "attempts": attempts}
