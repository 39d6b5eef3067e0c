"""The compile daemon: unix-socket server around the service compiler.

``fdc serve --socket PATH`` runs one.  Requests are length-prefixed
JSON frames (:mod:`.protocol`); ``compile`` requests pass through a
**bounded queue** drained by handler threads, while control ops
(``ping``, ``stats``, ``shutdown``) are answered inline so they keep
working under load.

Backpressure and shedding: when the queue is full an incoming
speculative request is refused immediately and a non-speculative
request sheds the *oldest queued speculative* request (both receive a
retryable ``overloaded`` reply carrying ``retry_after_s``); if nothing
can be shed the newcomer is refused.  Requests also carry deadlines —
the daemon clamps them to ``max_deadline_s``, expires requests that
aged out while queued, and propagates the deadline into the compiler
and worker pool (cooperative cancellation).

Every phase is traced when a tracer is supplied (``service.request``
spans, ``service.overloaded``/``service.shed`` decisions), and
``stats`` exposes request counters plus store/pool stats.

The daemon also owns an always-on :class:`~repro.obs.MetricsRegistry`:
per-request latency histograms and outcome counters, a live queue-depth
gauge, queue-wait times, and mirrors of the pool / store / parse /
reply counters.  The ``metrics`` control op serves a snapshot plus the
Prometheus text exposition (``fdc metrics``).

A compile reply is per procedure (:func:`.protocol.pack_pieces`): the
daemon sweeps but does not assemble, and ships a procedure's blob only
when the request's ``have`` list does not name its §8 store key.  It
keeps no per-client state: ``have`` is the whole of it.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque
from typing import Optional

from ..core.options import Options
from ..core.recompile import SummaryStore
from ..lang import PARSE_COUNTS, SUMMARY_COUNTS
from ..obs.metrics import MetricsRegistry, mirror_counters
from .compiler import ServiceCompiler
from .pool import WorkerPool
from .protocol import (
    PROTOCOL_VERSION,
    FrameError,
    ServiceError,
    encode_frame,
    error_reply,
    options_from_wire,
    pack_pieces,
    recv_frame,
)


class CompileDaemon:
    """One compile-service daemon (see module docstring)."""

    def __init__(
        self,
        socket_path: str,
        store_dir: Optional[str] = None,
        pool_size: int = 2,
        queue_limit: int = 8,
        handlers: int = 2,
        max_deadline_s: float = 300.0,
        request_read_timeout_s: float = 10.0,
        seed: int = 0,
        tracer=None,
        crash_flag: Optional[str] = None,
        hang_flag: Optional[str] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.socket_path = socket_path
        self.tracer = tracer
        self.max_deadline_s = max_deadline_s
        self.request_read_timeout_s = request_read_timeout_s
        self.queue_limit = queue_limit
        self.handlers = max(1, handlers)
        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "fdc_requests_total", "service requests by op and outcome",
            labels=("op", "outcome"),
        )
        self._m_latency = self.metrics.histogram(
            "fdc_request_latency_seconds",
            "compile-request handling latency by outcome",
            labels=("outcome",),
        )
        self._m_queue_wait = self.metrics.histogram(
            "fdc_queue_wait_seconds",
            "time compile requests spent queued",
        ).labels()
        self._m_queue_depth = self.metrics.gauge(
            "fdc_queue_depth", "compile requests currently queued",
        ).labels()
        self.store = SummaryStore(store_dir)
        if pool is not None:
            self.pool = pool
        elif pool_size > 0:
            self.pool = WorkerPool(size=pool_size, seed=seed,
                                   crash_flag=crash_flag,
                                   hang_flag=hang_flag, tracer=tracer,
                                   metrics=self.metrics)
        else:
            self.pool = None
        if self.pool is not None and self.pool.metrics is None:
            self.pool.metrics = self.metrics
        self.compiler = ServiceCompiler(store=self.store, pool=self.pool,
                                        tracer=tracer)
        self.counters = {
            "requests": 0, "completed": 0, "errors": 0,
            "overloaded": 0, "shed": 0, "expired": 0, "bad": 0,
        }
        #: compile replies: procedure blobs shipped vs elided (the
        #: request's ``have`` named them), and frame bytes sent
        self.reply = {"blobs_shipped": 0, "blobs_elided": 0, "bytes": 0}
        #: queue entries: (conn, request, enqueued_at, deadline)
        self._queue: deque = deque()
        self._cv = threading.Condition()
        self._stop = threading.Event()
        self.ready = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle ----------------------------------------------------------

    def serve_forever(self) -> None:
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        lst = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        lst.bind(self.socket_path)
        lst.listen(16)
        lst.settimeout(0.2)
        self._listener = lst
        for i in range(self.handlers):
            t = threading.Thread(target=self._handler_loop,
                                 name=f"fdc-handler-{i}", daemon=True)
            t.start()
            self._threads.append(t)
        self.ready.set()
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = lst.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                t = threading.Thread(target=self._read_request,
                                     args=(conn,), daemon=True)
                t.start()
        finally:
            self._shutdown_cleanup()

    def serve_in_thread(self) -> threading.Thread:
        """Start the daemon on a background thread (tests); returns the
        thread once the socket is accepting."""
        t = threading.Thread(target=self.serve_forever, daemon=True)
        t.start()
        if not self.ready.wait(timeout=10):
            raise RuntimeError("daemon did not start")
        return t

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._cv:
            self._cv.notify_all()

    def _shutdown_cleanup(self) -> None:
        self._stop.set()
        with self._cv:
            pending = list(self._queue)
            self._queue.clear()
            self._cv.notify_all()
        for conn, _req, _t, _dl in pending:
            self._reply_close(conn, error_reply(
                "shutdown", "daemon stopping", retryable=True))
        if self.pool is not None:
            self.pool.close()
        try:
            self._listener.close()
        except (OSError, AttributeError):
            pass
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    # -- request intake -----------------------------------------------------

    def _read_request(self, conn: socket.socket) -> None:
        """Read one request frame (bounded), answer control ops inline,
        enqueue compile requests under the backpressure policy."""
        deadline = time.monotonic() + self.request_read_timeout_s
        try:
            req = recv_frame(conn, deadline)
        except (FrameError, TimeoutError, OSError):
            # slow-loris / garbage client: drop the connection
            with self._cv:
                self.counters["bad"] += 1
            self._m_requests.inc(1.0, op="?", outcome="bad")
            try:
                conn.close()
            except OSError:
                pass
            return
        op = req.get("op")
        with self._cv:
            self.counters["requests"] += 1
        if req.get("v") != PROTOCOL_VERSION:
            self._m_requests.inc(1.0, op=str(op), outcome="bad")
            self._reply_close(conn, error_reply(
                "bad-request",
                f"protocol version {req.get('v')!r} != "
                f"{PROTOCOL_VERSION}", retryable=False))
            return
        if op == "ping":
            self._m_requests.inc(1.0, op="ping", outcome="ok")
            self._reply_close(conn, {"ok": True, "pong": True,
                                     "pid": os.getpid(),
                                     "v": PROTOCOL_VERSION})
            return
        if op == "stats":
            self._m_requests.inc(1.0, op="stats", outcome="ok")
            self._reply_close(conn, {"ok": True, "v": PROTOCOL_VERSION,
                                     "stats": self.stats()})
            return
        if op == "metrics":
            self._m_requests.inc(1.0, op="metrics", outcome="ok")
            self._sync_metrics()
            self._reply_close(conn, {
                "ok": True, "v": PROTOCOL_VERSION,
                "metrics": self.metrics.snapshot(),
                "prometheus": self.metrics.prometheus(),
            })
            return
        if op == "shutdown":
            self._m_requests.inc(1.0, op="shutdown", outcome="ok")
            self._reply_close(conn, {"ok": True, "stopping": True,
                                     "v": PROTOCOL_VERSION})
            self.stop()
            return
        if op != "compile":
            self._m_requests.inc(1.0, op=str(op), outcome="bad")
            self._reply_close(conn, error_reply(
                "bad-request", f"unknown op {op!r}", retryable=False))
            return
        self._enqueue(conn, req)

    def _enqueue(self, conn: socket.socket, req: dict) -> None:
        now = time.monotonic()
        want = req.get("deadline_s")
        try:
            want = float(want) if want is not None \
                else self.max_deadline_s
        except (TypeError, ValueError):
            want = self.max_deadline_s
        deadline = now + max(0.0, min(want, self.max_deadline_s))
        speculative = bool(req.get("speculative"))
        with self._cv:
            if self._stop.is_set():
                shed_entry, refused = None, "shutdown"
            elif len(self._queue) < self.queue_limit:
                shed_entry, refused = None, None
            elif speculative:
                # a full queue never accepts more speculation
                shed_entry, refused = None, "overloaded"
            else:
                # shed the oldest queued speculative request in favor
                # of the non-speculative newcomer
                shed_entry = None
                for i, entry in enumerate(self._queue):
                    if entry[1].get("speculative"):
                        shed_entry = entry
                        del self._queue[i]
                        break
                refused = None if shed_entry is not None \
                    else "overloaded"
            if refused is None:
                self._queue.append((conn, req, now, deadline))
                self._cv.notify()
            qlen = len(self._queue)
            if refused == "overloaded" or shed_entry is not None:
                self.counters["overloaded"] += 1
            if shed_entry is not None:
                self.counters["shed"] += 1
        self._m_queue_depth.set(qlen)
        retry_after = round(0.1 * (qlen + 1), 3)
        if shed_entry is not None:
            self._m_requests.inc(1.0, op="compile", outcome="shed")
            if self.tracer is not None:
                self.tracer.decision("service.shed")
            self._reply_close(shed_entry[0], error_reply(
                "overloaded", "shed for a non-speculative request",
                retryable=True, retry_after_s=retry_after))
        if refused == "overloaded":
            self._m_requests.inc(1.0, op="compile", outcome="overloaded")
            if self.tracer is not None:
                self.tracer.decision("service.overloaded")
            self._reply_close(conn, error_reply(
                "overloaded", "compile queue full", retryable=True,
                retry_after_s=retry_after))
        elif refused == "shutdown":
            self._m_requests.inc(1.0, op="compile", outcome="shutdown")
            self._reply_close(conn, error_reply(
                "shutdown", "daemon stopping", retryable=True))

    # -- handling -----------------------------------------------------------

    def _handler_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._stop.is_set():
                    self._cv.wait(timeout=0.5)
                if self._stop.is_set() and not self._queue:
                    return
                if not self._queue:
                    continue
                conn, req, enq, deadline = self._queue.popleft()
                qlen = len(self._queue)
            self._m_queue_depth.set(qlen)
            start = time.monotonic()
            self._m_queue_wait.observe(max(0.0, start - enq))
            if start > deadline:
                with self._cv:
                    self.counters["expired"] += 1
                self._m_requests.inc(1.0, op="compile",
                                     outcome="expired")
                self._reply_close(conn, error_reply(
                    "deadline", "request expired while queued",
                    retryable=True))
                continue
            reply = self._compile(req, deadline)
            outcome = "ok" if reply.get("ok") else "error"
            self._m_latency.observe(time.monotonic() - start,
                                    outcome=outcome)
            self._m_requests.inc(1.0, op="compile", outcome=outcome)
            frame = encode_frame(reply)
            if reply.get("ok"):
                with self._cv:
                    self.reply["bytes"] += len(frame)
            self._send_close(conn, frame)

    def _compile(self, req: dict, deadline: float) -> dict:
        def span():
            from contextlib import nullcontext
            if self.tracer is None:
                return nullcontext()
            return self.tracer.phase("service.request", op="compile")

        try:
            source = req["source"]
            opts = options_from_wire(req["opts"]) if req.get("opts") \
                else Options()
            if not isinstance(source, str):
                raise KeyError("source")
            have = req.get("have", [])
            if not isinstance(have, list) \
                    or not all(isinstance(k, str) for k in have):
                raise TypeError("'have' is not a list of strings")
        except (KeyError, TypeError, ValueError) as e:
            with self._cv:
                self.counters["bad"] += 1
            return error_reply("bad-request", f"malformed request: {e}",
                               retryable=False)
        try:
            with span():
                swept, stats = self.compiler.sweep(
                    source, opts, deadline=deadline)
                pieces = pack_pieces(swept, set(have))
        except ServiceError as e:
            with self._cv:
                self.counters["errors"] += 1
            return error_reply(e.kind, str(e), retryable=e.retryable,
                               retry_after_s=e.retry_after_s)
        except Exception as e:
            # the program itself failed to compile: a deterministic,
            # non-retryable outcome the client should surface (its
            # in-process fallback would fail identically)
            with self._cv:
                self.counters["errors"] += 1
            return error_reply("compile-error",
                               f"{type(e).__name__}: {e}",
                               retryable=False)
        shipped = len(pieces["blobs"])
        with self._cv:
            self.counters["completed"] += 1
            self.reply["blobs_shipped"] += shipped
            self.reply["blobs_elided"] += len(swept.order) - shipped
        return {"ok": True, "v": PROTOCOL_VERSION, **pieces,
                "stats": stats}

    # -- misc ---------------------------------------------------------------

    def stats(self) -> dict:
        with self._cv:
            out = dict(self.counters)
            out["queued"] = len(self._queue)
            out["reply"] = dict(self.reply)
        out["store"] = self.store.stats()
        out["parse"] = dict(PARSE_COUNTS)
        out["local_summaries"] = dict(SUMMARY_COUNTS)
        if self.pool is not None:
            out["pool"] = self.pool.stats()
        return out

    def _sync_metrics(self) -> None:
        """Refresh the mirrored counter families (pool / store / parse /
        summary / intake / reply counters) and the queue-depth gauge so a
        ``metrics`` reply reflects the daemon's current state."""
        with self._cv:
            counters = dict(self.counters)
            reply = dict(self.reply)
            qlen = len(self._queue)
        self._m_queue_depth.set(qlen)
        mirror_counters(self.metrics, "fdc_daemon_events_total",
                        counters,
                        help="daemon request-intake counters")
        mirror_counters(self.metrics, "fdc_reply_events_total", reply,
                        help="compile replies: procedure blobs shipped "
                             "vs elided by the client's cache, bytes sent")
        mirror_counters(self.metrics, "fdc_store_events_total",
                        self.store.stats(),
                        help="summary-store activity")
        mirror_counters(self.metrics, "fdc_parse_events_total",
                        PARSE_COUNTS,
                        help="program units parsed vs reused from the "
                             "parser's unit memo (this process)")
        mirror_counters(self.metrics, "fdc_local_summary_events_total",
                        SUMMARY_COUNTS,
                        help="local summaries built vs reused from the "
                             "parser's unit memo (this process)")
        if self.pool is not None:
            mirror_counters(self.metrics, "fdc_pool_events_total",
                            self.pool.stats(),
                            help="worker-pool supervision counters")

    def _reply_close(self, conn: socket.socket, obj: dict) -> None:
        self._send_close(conn, encode_frame(obj))

    def _send_close(self, conn: socket.socket, frame: bytes) -> None:
        try:
            conn.sendall(frame)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass
