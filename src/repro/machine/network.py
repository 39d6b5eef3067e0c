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

A :class:`~repro.machine.faults.FaultPlan` may inject per-message delay
jitter and drops-with-retransmit; both only move virtual arrival times
(delivery itself is reliable), so results and message/byte counts are
unchanged by construction.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from .costmodel import CostModel
from .deadlock import DeadlockDetector, DeadlockReport
from .faults import FaultPlan
from .stats import RunStats
from .topology import LinkClock, Topology, UniformTopology

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


def combine_reduction(op: str, values: list) -> Any:
    """Combine allreduce contributions, already ordered by rank — NOT by
    thread arrival order — so floating-point reductions are
    deterministic.  Shared by both scheduler backends."""
    if op == "sum":
        return sum(values)
    if op == "max":
        return max(values)
    if op == "min":
        return min(values)
    if op == "maxloc":
        # values are (magnitude, index) pairs; ties break to the
        # smallest index for determinism
        return max(values, key=lambda p: (p[0], -p[1]))
    raise SimulationError(f"unknown reduction {op!r}")


def arrival_time(
    topo: Topology, links: Optional[LinkClock], cost: CostModel,
    src: int, dst: int, nbytes: int, now: float,
) -> float:
    """Virtual time a message posted at *now* becomes available at
    *dst*.  Shared by both network implementations: with link
    contention enabled the message's head is routed over the topology's
    link path (serializing against earlier traffic), otherwise the
    closed-form latency applies."""
    if links is not None:
        return links.traverse(
            topo.link_path(src, dst), now + cost.alpha,
            cost.beta * nbytes, cost.hop,
        )
    return now + topo.transfer_time(cost, nbytes, src, dst)


@dataclass
class _Message:
    src: int
    tag: int
    payload: Any
    nbytes: int
    available_at: float  # virtual µs
    #: sender's clock when the send was posted (trace provenance: the
    #: critical-path walk jumps to the sender at this time)
    sent_at: float = 0.0
    #: source-program statement that emitted the send, when tracing
    origin: Optional[str] = None


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
        nprocs: int,
        cost: CostModel,
        stats: RunStats,
        timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        detector: Optional[DeadlockDetector] = None,
        tracer: Any = None,
        topology: Optional[Topology] = None,
        metrics: Any = None,
    ) -> None:
        self.nprocs = nprocs
        self.cost = cost
        self.stats = stats
        self.timeout_s = resolve_timeout(timeout_s)
        self.faults = faults
        self.detector = detector
        self.tracer = tracer
        self.metrics = metrics
        self.topo = topology if topology is not None \
            else UniformTopology(nprocs)
        self._links = LinkClock() if self.topo.contention else None
        self._queues: list[dict[tuple[int, int], deque[_Message]]] = [
            {} for _ in range(nprocs)
        ]
        self._conds = [threading.Condition() for _ in range(nprocs)]
        self._waiting: list[tuple[int, int] | None] = [None] * nprocs
        self._failed = threading.Event()
        #: per-(src, dst, tag) sequence numbers for deterministic fault
        #: identity.  Only thread *src* sends on a given key, so plain
        #: dict updates are race-free under the GIL.
        self._seq: dict[tuple[int, int, int], int] = {}

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

    def _arrival(self, src: int, dst: int, nbytes: int,
                 now: float) -> float:
        return arrival_time(self.topo, self._links, self.cost,
                            src, dst, nbytes, now)

    def send(
        self, src: int, dst: int, tag: int, payload: Any, nbytes: int,
        now: float, origin: Optional[str] = None,
    ) -> float:
        """Deliver a message; returns the sender's clock after the send."""
        if self._failed.is_set():
            raise AbortError(
                f"processor {src} aborted before send to {dst}"
            )
        if not (0 <= dst < self.nprocs):
            raise SimulationError(f"send to invalid processor {dst}")
        if dst == src:
            raise SimulationError(f"processor {src} sending to itself")
        sender_after = now + self.cost.send_cost(nbytes)
        available = self._arrival(src, dst, nbytes, now)
        if self.faults is not None and self.faults.affects_messages:
            seqkey = (src, dst, tag)
            seq = self._seq.get(seqkey, 0)
            self._seq[seqkey] = seq + 1
            extra, retries = self.faults.message_faults(src, dst, tag, seq)
            if extra or retries:
                available += extra
                self.stats.record_fault(retries)
                if self.tracer is not None:
                    self.tracer.rank_event(
                        src, "fault", now, dst=dst, tag=tag,
                        delay=extra, retries=retries,
                    )
        if self.tracer is not None:
            if self.topo.is_uniform:
                self.tracer.rank_event(
                    src, "net.send", now, dst=dst, tag=tag, bytes=nbytes,
                    avail=available, origin=origin,
                )
            else:
                self.tracer.rank_event(
                    src, "net.send", now, dst=dst, tag=tag, bytes=nbytes,
                    avail=available, origin=origin,
                    hops=self.topo.hops(src, dst),
                )
        msg = _Message(src, tag, payload, nbytes, available,
                       sent_at=now, origin=origin)
        key = (src, tag)
        cond = self._conds[dst]
        with cond:
            q = self._queues[dst].get(key)
            if q is None:
                q = self._queues[dst][key] = deque()
            q.append(msg)
            if self._waiting[dst] == key:
                cond.notify_all()
        self.stats.record_message(nbytes)
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
                    arrive = max(now, m.available_at)
                    t = arrive + self.cost.recv_cost(m.nbytes)
                    if self.metrics is not None:
                        self.metrics.recv_blocked.observe(
                            max(0.0, m.available_at - now)
                        )
                    if self.tracer is not None:
                        self.tracer.rank_event(
                            dst, "net.recv", now, dur=t - now, src=m.src,
                            tag=tag, bytes=m.nbytes, sent_at=m.sent_at,
                            avail=m.available_at,
                            wait=max(0.0, m.available_at - now),
                            origin=origin or m.origin,
                        )
                    return m.payload, t
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
    so a reusable barrier plus a shared slot per phase suffices.
    Virtual time: all participants synchronize at ``max(clocks)`` then
    pay the tree cost.

    Each operation costs exactly **one** rendezvous: participants
    deposit their contributions, and the barrier's action callback —
    which runs in exactly one thread, before any waiter is released —
    performs the whole completion (``max(clocks)``, the rank-ordered
    reduction / broadcast consumption / exchange snapshot, the stats,
    the slot cleanup) into shared result fields.  Those fields are
    overwrite-safe without further locking because the *next* trip
    cannot happen until every rank has re-entered the barrier, i.e.
    has already read the previous result.
    """

    def __init__(self, nprocs: int, cost: CostModel, stats: RunStats,
                 timeout_s: Optional[float] = None,
                 detector: Optional[DeadlockDetector] = None,
                 network: Optional[Network] = None,
                 tracer: Any = None,
                 topology: Optional[Topology] = None,
                 metrics: Any = None) -> None:
        self.nprocs = nprocs
        self.cost = cost
        self.stats = stats
        self.timeout_s = resolve_timeout(timeout_s)
        self.detector = detector
        self.network = network
        self.tracer = tracer
        self.metrics = metrics
        self.topo = topology if topology is not None \
            else UniformTopology(nprocs)
        self._barrier = threading.Barrier(nprocs, action=self._trip)
        self._lock = threading.Lock()
        self._slots: dict[str, Any] = {}
        self._clocks: list[float] = [0.0] * nprocs
        #: the op-specific completion; every participant of an operation
        #: assigns an equivalent closure, so the racy writes are benign
        self._complete: Any = None
        self._result: Any = None
        self._maxclock = 0.0
        #: straggler rank (trace-only) — computed in the barrier action,
        #: overwrite-safe like ``_result`` (the next trip cannot happen
        #: until every rank has re-entered, i.e. has read this one)
        self._maxrank = 0

    def _trip(self) -> None:
        """Barrier action: runs once, before any waiter resumes.  The
        detector release comes first so a rank finishing right after the
        rendezvous cannot observe stale blocked states and cry
        deadlock."""
        if self.detector is not None:
            self.detector.release_collective()
        self._maxclock = max(self._clocks)
        if self.tracer is not None:
            self._maxrank = min(
                r for r in range(self.nprocs)
                if self._clocks[r] == self._maxclock
            )
        fn, self._complete = self._complete, None
        self._result = fn() if fn is not None else None

    def _trace_coll(self, rank: int, label: str, now: float, t: float,
                    nbytes: int = 0, origin: Optional[str] = None) -> None:
        """Record one participant's rendezvous span (after _sync, so
        ``_maxclock``/``_maxrank`` describe *this* operation)."""
        self.tracer.rank_event(
            rank, "coll", now, dur=t - now, label=label, bytes=nbytes,
            maxclock=self._maxclock, maxrank=self._maxrank, origin=origin,
        )

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

    def _observe_coll(self, now: float) -> None:
        """Record this participant's rendezvous wait (virtual time spent
        blocked until the straggler arrived)."""
        self.metrics.coll_blocked.observe(max(0.0, self._maxclock - now))

    def _sync(self, rank: int, label: str) -> None:
        if self.network is not None and self.network.failing():
            raise self._failure_error(rank, label)
        try:
            if self.metrics is not None:
                self.metrics.block_coll.inc()
            if self.detector is not None:
                self.detector.block_collective(
                    rank, label, self._clocks[rank]
                )
            try:
                self._barrier.wait(timeout=self.timeout_s)
            finally:
                if self.detector is not None:
                    self.detector.unblock(rank)
        except threading.BrokenBarrierError:
            raise self._failure_error(rank, label) from None

    def broadcast(self, rank: int, root: int, payload: Any, nbytes: int,
                  now: float, consume: Any = None,
                  origin: Optional[str] = None) -> tuple[Any, float]:
        """All nodes call; returns (payload, new clock).

        When *consume* is given (a callable taking the broadcast data)
        it runs inside the barrier action, before any participant
        resumes, so the root may pass a zero-copy view of its own array
        as *payload*: every consumer has copied the data out before any
        participant — the root included — can run on and mutate the
        source.
        """
        self._clocks[rank] = now
        with self._lock:
            slot = self._slots.setdefault("bcast", {"consume": []})
            if rank == root:
                slot["data"] = payload
                slot["nbytes"] = nbytes
            if consume is not None:
                slot["consume"].append(consume)
        self._complete = self._finish_bcast
        self._sync(rank, "bcast")
        if self.metrics is not None:
            self._observe_coll(now)
        t = self._maxclock + self.topo.collective_cost(
            self.cost, self.nprocs, nbytes
        )
        if self.tracer is not None:
            self._trace_coll(rank, "bcast", now, t, nbytes, origin)
        return self._result, t

    def _finish_bcast(self) -> Any:
        with self._lock:
            slot = self._slots.pop("bcast")
        data = slot["data"]
        for fn in slot["consume"]:
            fn(data)
        self.stats.record_collective(slot["nbytes"])
        return data

    def allreduce(self, rank: int, value: Any, op: str, nbytes: int,
                  now: float,
                  origin: Optional[str] = None) -> tuple[Any, float]:
        """Combining all-reduce; op in {"sum", "max", "min", "maxloc"}.

        Contributions combine in rank order — NOT thread arrival order —
        so floating-point reductions are deterministic and repeated runs
        (scalar or vectorized execution alike) agree bit-for-bit.
        """
        self._clocks[rank] = now
        with self._lock:
            slot = self._slots.setdefault(
                "reduce", {"values": {}, "op": op, "nbytes": nbytes}
            )
            slot["values"][rank] = value
        self._complete = self._finish_reduce
        self._sync(rank, "reduce")
        if self.metrics is not None:
            self._observe_coll(now)
        t = self._maxclock + 2 * self.topo.collective_cost(
            self.cost, self.nprocs, nbytes
        )
        if self.tracer is not None:
            self._trace_coll(rank, "reduce", now, t, nbytes, origin)
        return self._result, t

    def _finish_reduce(self) -> Any:
        with self._lock:
            slot = self._slots.pop("reduce")
        values = [slot["values"][r] for r in range(self.nprocs)]
        result = combine_reduction(slot["op"], values)
        self.stats.record_collective(slot["nbytes"] * self.nprocs)
        return result

    def barrier(self, rank: int, now: float,
                origin: Optional[str] = None) -> float:
        self._clocks[rank] = now
        self._sync(rank, "barrier")
        if self.metrics is not None:
            self._observe_coll(now)
        t = self._maxclock + self.topo.barrier_cost(self.cost, self.nprocs)
        if self.tracer is not None:
            self._trace_coll(rank, "barrier", now, t, 0, origin)
        return t

    def exchange(self, rank: int, outgoing: dict[int, Any], nbytes_out: int,
                 now: float,
                 origin: Optional[str] = None) -> tuple[dict[int, Any], float]:
        """All-to-all personalized exchange (used by the remap runtime):
        each node contributes {dst: payload}; receives {src: payload}.

        The pairwise transfers are real traffic, recorded once into the
        point-to-point message/byte counts (one message per (src, dst)
        pair with a payload, all contributed bytes).
        """
        self._clocks[rank] = now
        with self._lock:
            self._slots.setdefault("exchange", {})[rank] = \
                (outgoing, nbytes_out)
        self._complete = self._finish_exchange
        self._sync(rank, "exchange")
        if self.metrics is not None:
            self._observe_coll(now)
        table = self._result
        incoming = {
            src: msgs[rank]
            for src, (msgs, _nb) in table.items()
            if rank in msgs
        }
        t = self._maxclock + self.topo.collective_cost(
            self.cost, self.nprocs, max(nbytes_out, 1)
        )
        if self.tracer is not None:
            self._trace_coll(rank, "exchange", now, t, nbytes_out, origin)
            per_pair = nbytes_out / max(1, len(outgoing))
            for dst in sorted(outgoing):
                self.tracer.rank_event(
                    rank, "net.exchange", now, dst=dst, bytes=per_pair,
                    origin=origin,
                )
        return incoming, t

    def _finish_exchange(self) -> Any:
        with self._lock:
            table = self._slots.pop("exchange")
        nmsgs = sum(len(msgs) for msgs, _nb in table.values())
        nbytes = sum(nb for _msgs, nb in table.values())
        if nmsgs:
            self.stats.record_exchange(nmsgs, nbytes)
        return table
