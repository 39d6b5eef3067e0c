"""Message-passing network with virtual-time semantics.

Point-to-point messages carry a payload plus the virtual time at which
they become available at the receiver (sender clock at send + latency +
bandwidth term).  A blocking receive matches on ``(src, tag)`` and
advances the receiver's clock to ``max(own clock, arrival time)``.

Threads provide the concurrency (one per simulated node); a condition
variable per destination wakes blocked receivers.  Deadlocks (e.g. a
miscompiled program receiving a message nobody sends) are detected
*instantly* by the wait-for bookkeeping in
:mod:`repro.machine.deadlock`: the moment every live rank is blocked
with no in-flight message matching any awaited key, a
:class:`DeadlockError` carrying a structured
:class:`~repro.machine.deadlock.DeadlockReport` is raised.  A
wall-clock timeout (``REPRO_SIM_TIMEOUT``, default 60 s) remains as a
safety net only.

What a message or a collective *costs, records and traces* is not
decided here: that is :mod:`repro.machine.wire`, shared with the event
backend.  This module is the ``threads`` synchronisation discipline —
queues under condition variables, a ``threading.Barrier`` per
rendezvous, the wait-for-graph detector, failure propagation and the
wall-clock timeouts — which is what makes it the differential oracle.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from .deadlock import DeadlockDetector, DeadlockReport

if TYPE_CHECKING:
    from .wire import Wire, _Message

DEFAULT_TIMEOUT_S = 60.0


def resolve_timeout(timeout_s: Optional[float]) -> float:
    """Explicit value, else ``REPRO_SIM_TIMEOUT``, else 60 s."""
    if timeout_s is not None:
        return timeout_s
    env = os.environ.get("REPRO_SIM_TIMEOUT", "").strip()
    if env:
        try:
            return float(env)
        except ValueError:
            pass
    return DEFAULT_TIMEOUT_S


class SimulationError(Exception):
    """Deadlock or protocol error inside the simulated machine."""

    report: Optional[DeadlockReport] = None


class DeadlockError(SimulationError):
    """Deadlock detected; ``report`` carries the structured diagnosis."""

    def __init__(self, msg: str, report: Optional[DeadlockReport] = None):
        super().__init__(msg)
        self.report = report


class AbortError(SimulationError):
    """Secondary failure: this rank was torn down because another rank
    failed first (the primary error is re-raised by ``Machine.run``)."""


class Network:
    """The interconnect shared by all node processors.

    Each destination keeps its in-flight messages in a dict keyed on
    ``(src, tag)`` with a FIFO deque per key, so a matched receive is an
    O(1) dict probe instead of a linear scan of everything queued.  A
    blocked receiver advertises the key it waits for; senders only
    notify when they deliver that exact key, so heavy cross-traffic (the
    run-time-resolution element messages) no longer wakes every blocked
    receiver once per unrelated message.
    """

    def __init__(
        self,
        wire: "Wire",
        timeout_s: Optional[float] = None,
        detector: Optional[DeadlockDetector] = None,
    ) -> None:
        self.wire = wire
        self.nprocs = nprocs = wire.nprocs
        self.timeout_s = resolve_timeout(timeout_s)
        self.detector = detector
        self.metrics = wire.metrics
        self._queues: list[dict[tuple[int, int], deque[_Message]]] = [
            {} for _ in range(nprocs)
        ]
        self._conds = [threading.Condition() for _ in range(nprocs)]
        self._waiting: list[tuple[int, int] | None] = [None] * nprocs
        self._failed = threading.Event()

    # -- failure propagation ------------------------------------------------

    def fail(self) -> None:
        """Wake all blocked receivers after an error elsewhere."""
        self._failed.set()
        for c in self._conds:
            with c:
                c.notify_all()

    def failing(self) -> bool:
        return self._failed.is_set()

    def _failure_error(self, dst: int, src: int, tag: int) -> SimulationError:
        """The error a torn-down rank raises: the deadlock diagnosis if
        one was declared, a secondary abort otherwise."""
        rep = self.detector.report if self.detector is not None else None
        if rep is not None:
            return DeadlockError(
                f"deadlock: {rep.reason}\n{rep.describe()}", rep
            )
        return AbortError(
            f"processor {dst} aborted while waiting for "
            f"(src={src}, tag={tag})"
        )

    # -- traffic -------------------------------------------------------------

    def send(
        self, src: int, dst: int, tag: int, payload: Any, nbytes: int,
        now: float, origin: Optional[str] = None,
    ) -> float:
        """Deliver a message; returns the sender's clock after the send."""
        if self._failed.is_set():
            raise AbortError(
                f"processor {src} aborted before send to {dst}"
            )
        msg, sender_after = self.wire.post(
            src, dst, tag, payload, nbytes, now, origin
        )
        key = (src, tag)
        cond = self._conds[dst]
        with cond:
            q = self._queues[dst].get(key)
            if q is None:
                q = self._queues[dst][key] = deque()
            q.append(msg)
            if self._waiting[dst] == key:
                cond.notify_all()
        return sender_after

    def recv(self, dst: int, src: int, tag: int, now: float,
             origin: Optional[str] = None) -> tuple[Any, float]:
        """Blocking matched receive; returns (payload, new clock)."""
        if not (0 <= src < self.nprocs):
            raise SimulationError(f"recv from invalid processor {src}")
        key = (src, tag)
        cond = self._conds[dst]
        deadline = time.monotonic() + self.timeout_s
        while True:
            with cond:
                queues = self._queues[dst]
                q = queues.get(key)
                if q:
                    m = q.popleft()
                    if not q:
                        del queues[key]
                    return self.wire.take(m, dst, tag, now, origin)
                if self._failed.is_set():
                    raise self._failure_error(dst, src, tag)
                self._waiting[dst] = key
            # Register the blocked state *outside* the condition lock
            # (lock order is always detector -> queue, never reversed).
            # This raises DeadlockError right here when this rank's
            # transition completes a deadlock.
            try:
                if self.metrics is not None:
                    self.metrics.block_recv.inc()
                if self.detector is not None:
                    self.detector.block_recv(dst, key, now)
                remaining = deadline - time.monotonic()
                with cond:
                    if not self._queues[dst].get(key) \
                            and not self._failed.is_set():
                        arrived = cond.wait(timeout=max(0.0, remaining))
                    else:
                        arrived = True
            finally:
                if self.detector is not None:
                    self.detector.unblock(dst)
                with cond:
                    self._waiting[dst] = None
            if not arrived:
                # wall-clock safety net: something is blocked in a way
                # the wait-for graph cannot see (should not happen)
                self.fail()
                reason = (
                    f"wall-clock timeout: processor {dst} waited "
                    f"{self.timeout_s:.1f}s for message (src={src}, "
                    f"tag={tag}) that never arrived"
                )
                rep = self.detector.snapshot(reason) \
                    if self.detector is not None else None
                raise DeadlockError(f"deadlock: {reason}", rep)

    # -- introspection -------------------------------------------------------

    def pending(self, dst: int) -> int:
        with self._conds[dst]:
            return sum(len(q) for q in self._queues[dst].values())

    def has_pending(self, dst: int, key: tuple[int, int]) -> bool:
        """True when an undelivered message matches *key* at *dst*."""
        with self._conds[dst]:
            return bool(self._queues[dst].get(key))

    def pending_summary(
        self, dst: int
    ) -> list[tuple[tuple[int, int], int]]:
        """[(key, count)] of undelivered messages queued at *dst*."""
        with self._conds[dst]:
            return sorted(
                (key, len(q)) for key, q in self._queues[dst].items() if q
            )


class CollectiveContext:
    """Rendezvous helper for collectives (broadcast / reduce / barrier).

    SPMD programs execute collectives in the same order on every node,
    so a reusable barrier suffices.  Each operation costs exactly
    **one** rendezvous: participants deposit their contributions
    (:meth:`Wire.join`, under the lock), and the barrier's action
    callback — which runs in exactly one thread, before any waiter is
    released — closes the round (:meth:`Wire.close_round`); every
    participant then settles its own clock (:meth:`Wire.settle`).
    """

    def __init__(self, wire: "Wire",
                 timeout_s: Optional[float] = None,
                 detector: Optional[DeadlockDetector] = None,
                 network: Optional[Network] = None) -> None:
        self.wire = wire
        self.timeout_s = resolve_timeout(timeout_s)
        self.detector = detector
        self.network = network
        self.metrics = wire.metrics
        self._barrier = threading.Barrier(wire.nprocs, action=self._trip)
        self._lock = threading.Lock()

    def _trip(self) -> None:
        """Barrier action: runs once, before any waiter resumes.  The
        detector release comes first so a rank finishing right after the
        rendezvous cannot observe stale blocked states and cry
        deadlock."""
        if self.detector is not None:
            self.detector.release_collective()
        self.wire.close_round()

    def abort(self) -> None:
        """Break the rendezvous so collective waiters unblock."""
        try:
            self._barrier.abort()
        except Exception:  # pragma: no cover - abort never raises today
            pass

    def _failure_error(self, rank: int, label: str) -> SimulationError:
        rep = None
        if self.detector is not None:
            rep = self.detector.report
        if rep is not None:
            return DeadlockError(
                f"deadlock: {rep.reason}\n{rep.describe()}", rep
            )
        return AbortError(
            f"processor {rank} aborted inside collective {label!r} "
            f"(a peer failed or deadlocked)"
        )

    def _collective(self, rank: int, label: str, now: float,
                    origin: Optional[str], param: Any = None,
                    value: Any = None, nbytes: int = 0,
                    consume: Any = None) -> tuple[Any, float]:
        """One rendezvous: deposit, wait for every rank, settle."""
        with self._lock:
            self.wire.join(rank, label, now, param, value, nbytes, consume)
        if self.network is not None and self.network.failing():
            raise self._failure_error(rank, label)
        try:
            if self.metrics is not None:
                self.metrics.block_coll.inc()
            if self.detector is not None:
                self.detector.block_collective(rank, label, now)
            try:
                self._barrier.wait(timeout=self.timeout_s)
            finally:
                if self.detector is not None:
                    self.detector.unblock(rank)
        except threading.BrokenBarrierError:
            raise self._failure_error(rank, label) from None
        return self.wire.settle(rank, now, origin)

    def broadcast(self, rank: int, root: int, payload: Any, nbytes: int,
                  now: float, consume: Any = None,
                  origin: Optional[str] = None) -> tuple[Any, float]:
        """All nodes call; returns (payload, new clock).  *consume* (a
        callable taking the broadcast data) runs before any participant
        resumes, so the root may pass a zero-copy view as *payload*."""
        return self._collective(rank, "bcast", now, origin, root,
                                payload, nbytes, consume)

    def allreduce(self, rank: int, value: Any, op: str, nbytes: int,
                  now: float,
                  origin: Optional[str] = None) -> tuple[Any, float]:
        """Combining all-reduce; op in {"sum", "max", "min", "maxloc"},
        combined in rank order (deterministic floating point)."""
        return self._collective(rank, "reduce", now, origin, op,
                                value, nbytes)

    def barrier(self, rank: int, now: float,
                origin: Optional[str] = None) -> float:
        return self._collective(rank, "barrier", now, origin)[1]

    def exchange(self, rank: int, outgoing: dict[int, Any], nbytes_out: int,
                 now: float,
                 origin: Optional[str] = None) -> tuple[dict[int, Any], float]:
        """All-to-all personalized exchange (used by the remap runtime):
        each node contributes {dst: payload}; receives {src: payload}."""
        return self._collective(rank, "exchange", now, origin, None,
                                outgoing, nbytes_out)
