"""The ``threads`` backend: one OS thread per simulated rank.

Point-to-point messages carry a payload plus the virtual time at which
they become available at the receiver (sender clock at send + latency +
bandwidth term).  A blocking receive matches on ``(src, tag)`` and
advances the receiver's clock to ``max(own clock, arrival time)``.

Every rank runs its node program on its own thread, and a blocking
operation waits inline: a condition variable per destination wakes
blocked receivers, a ``threading.Barrier`` per rendezvous releases a
collective.  Deadlocks (e.g. a miscompiled program receiving a message
nobody sends) are detected *instantly* by the wait-for bookkeeping in
:mod:`repro.machine.deadlock`: the moment every live rank is blocked
with no in-flight message matching any awaited key, a
:class:`DeadlockError` carrying a structured
:class:`~repro.machine.deadlock.DeadlockReport` is raised.  A
wall-clock timeout (``REPRO_SIM_TIMEOUT``, default 60 s) remains as a
safety net only.

What a message or a collective *costs, records and traces* is not
decided here: that is :mod:`repro.machine.wire`, shared with the event
backend.  This module is the ``threads`` synchronisation discipline —
queues under condition variables, the barrier, the wait-for-graph
detector, failure propagation, the wall-clock timeouts and the rank
threads themselves — which is what makes it the differential oracle.
:class:`ThreadBackend` is the backend object ``Machine`` drives; the
exceptions are defined in :mod:`repro.machine.deadlock` and importable
from here.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Generator, Optional

from .deadlock import (
    AbortError,
    DeadlockDetector,
    DeadlockError,
    DeadlockReport,
    SimulationError,
)
from .machine import ProcContext

if TYPE_CHECKING:
    from .wire import Wire, _Message


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

    def __init__(self, wire: "Wire", timeout_s: float,
                 detector: DeadlockDetector) -> None:
        self.wire = wire
        self.nprocs = nprocs = wire.nprocs
        self.timeout_s = timeout_s
        self.detector = detector
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
        rep = self.detector.report
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
                self.detector.block_recv(dst, key, now)
                remaining = deadline - time.monotonic()
                with cond:
                    if not self._queues[dst].get(key) \
                            and not self._failed.is_set():
                        arrived = cond.wait(timeout=max(0.0, remaining))
                    else:
                        arrived = True
            finally:
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
                raise DeadlockError(f"deadlock: {reason}",
                                    self.detector.snapshot(reason))

    # -- introspection -------------------------------------------------------

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

    def __init__(self, wire: "Wire", timeout_s: float,
                 detector: DeadlockDetector, network: Network) -> None:
        self.wire = wire
        self.timeout_s = timeout_s
        self.detector = detector
        self.network = network
        self._barrier = threading.Barrier(wire.nprocs, action=self._trip)
        self._lock = threading.Lock()

    def _trip(self) -> None:
        """Barrier action: runs once, before any waiter resumes.  The
        detector release comes first so a rank finishing right after the
        rendezvous cannot observe stale blocked states and cry
        deadlock."""
        self.detector.release_collective()
        self.wire.close_round()

    def abort(self) -> None:
        """Break the rendezvous so collective waiters unblock."""
        try:
            self._barrier.abort()
        except Exception:  # pragma: no cover - abort never raises today
            pass

    def _failure_error(self, rank: int, label: str) -> SimulationError:
        rep = self.detector.report
        if rep is not None:
            return DeadlockError(
                f"deadlock: {rep.reason}\n{rep.describe()}", rep
            )
        return AbortError(
            f"processor {rank} aborted inside collective {label!r} "
            f"(a peer failed or deadlocked)"
        )

    def collective(self, rank: int, label: str, now: float,
                   origin: Optional[str], param: Any = None,
                   value: Any = None, nbytes: int = 0,
                   consume: Any = None) -> tuple[Any, float]:
        """One rendezvous: deposit, wait for every rank, settle;
        returns (result, new clock)."""
        with self._lock:
            self.wire.join(rank, label, now, param, value, nbytes, consume)
        if self.network.failing():
            raise self._failure_error(rank, label)
        try:
            self.detector.block_collective(rank, label, now)
            try:
                self._barrier.wait(timeout=self.timeout_s)
            finally:
                self.detector.unblock(rank)
        except threading.BrokenBarrierError:
            raise self._failure_error(rank, label) from None
        return self.wire.settle(rank, now, origin)


class ThreadProcContext(ProcContext):
    """Node-processor context for the ``threads`` backend.  On a rank's
    own thread every blocking op waits inline, so each ``*_y`` op is a
    generator that never yields (the unreachable ``yield`` only makes it
    one) and ``yield from ctx.recv_y(...)`` runs unchanged on both
    backends."""

    def recv_y(self, src: int, tag: int, origin: Optional[str] = None
               ) -> Generator[None, None, Any]:
        self._maybe_crash()
        payload, self.clock = self.machine.network.recv(
            self.rank, src, tag, self.clock, origin=origin
        )
        return payload
        yield

    def broadcast_y(self, root: int, payload: Any, nbytes: int,
                    consume: Any = None, origin: Optional[str] = None
                    ) -> Generator[None, None, Any]:
        self._maybe_crash()
        data, self.clock = self.machine.collectives.collective(
            self.rank, "bcast", self.clock, origin, root, payload, nbytes,
            consume
        )
        return data
        yield

    def allreduce_y(self, value: Any, op: str, nbytes: int = 8,
                    origin: Optional[str] = None
                    ) -> Generator[None, None, Any]:
        self._maybe_crash()
        result, self.clock = self.machine.collectives.collective(
            self.rank, "reduce", self.clock, origin, op, value, nbytes
        )
        return result
        yield

    def barrier_y(self, origin: Optional[str] = None
                  ) -> Generator[None, None, None]:
        self._maybe_crash()
        _none, self.clock = self.machine.collectives.collective(
            self.rank, "barrier", self.clock, origin
        )
        return
        yield

    def exchange_y(self, outgoing: dict[int, Any], nbytes_out: int,
                   origin: Optional[str] = None
                   ) -> Generator[None, None, dict[int, Any]]:
        self._maybe_crash()
        incoming, self.clock = self.machine.collectives.collective(
            self.rank, "exchange", self.clock, origin, None, outgoing,
            nbytes_out
        )
        return incoming
        yield


def _run_to_completion(coro: Generator[None, None, None]) -> None:
    """A rank thread's driver: every blocking op waits inline, so a node
    program runs straight to ``StopIteration``.  A yield means it
    suspended with no event loop to resume it; that is raised inside the
    program, at the yield, so the run fails with the usual per-rank
    error report."""
    try:
        coro.send(None)
        coro.throw(SimulationError(
            "node program yielded on the threads backend, where "
            "blocking operations never suspend"
        ))
    except StopIteration:
        pass


class ThreadBackend:
    """The ``threads`` backend object: the free-running thread-per-rank
    oracle.  It owns the blocking :class:`Network` and
    :class:`CollectiveContext`, the wait-for-graph
    :class:`~repro.machine.deadlock.DeadlockDetector` they report to,
    and the rank threads (start, bounded join, leak report)."""

    Context = ThreadProcContext

    def __init__(self, wire: "Wire", timeout_s: float) -> None:
        if wire.topo.contention:
            # link-contention arrival times depend on send order; the
            # free-running thread backend has no deterministic one
            raise ValueError(
                "link contention requires a deterministic scheduler "
                "(event), not threads"
            )
        #: every rank is dispatched once, onto its own thread
        self.dispatches = wire.nprocs
        self.switches = 0
        self._any_failed = False
        self.detector = DeadlockDetector(wire.nprocs)
        self.network = Network(wire, timeout_s, self.detector)
        self.collectives = CollectiveContext(wire, timeout_s, self.detector,
                                             self.network)
        # a declared deadlock wakes every blocked rank so the run tears
        # down (they raise DeadlockError/AbortError at their wait)
        self.detector.attach(self.network, lambda _report: self.fail())

    @property
    def report(self) -> Optional[DeadlockReport]:
        return self.detector.report

    def fail(self) -> None:
        """Wake every blocked receiver and break the collective barrier
        so no peer hangs after a failure."""
        self.network.fail()
        self.collectives.abort()

    def finish(self, rank: int, clock: float, failed: bool = False) -> None:
        """Rank left its node program; a deadlock this exposes is
        declared at once (see :meth:`DeadlockDetector.finish`)."""
        if failed:
            self._any_failed = True
        self.detector.finish(rank, clock, failed=failed)

    def run_ranks(self, coros: list[Any]) -> None:
        """One thread per rank coroutine, joined with a bound: every rank
        either finishes, or raises at its next network operation once a
        failure is declared."""
        threads = [
            threading.Thread(target=_run_to_completion, args=(coro,),
                             name=f"node-{rank}", daemon=True)
            for rank, coro in enumerate(coros)
        ]
        for t in threads:
            t.start()
        deadline = time.monotonic() + self.network.timeout_s + 10.0
        for t in threads:
            t.join(timeout=max(0.1, deadline - time.monotonic()))
        leaked = [t.name for t in threads if t.is_alive()]
        if leaked:  # pragma: no cover - defensive: should not happen
            self.fail()
            for t in threads:
                t.join(timeout=1.0)
            leaked = [t.name for t in threads if t.is_alive()]
        if leaked and not self._any_failed:  # pragma: no cover - defensive
            raise SimulationError(
                f"node threads failed to terminate: {leaked}"
            )
