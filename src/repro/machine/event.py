"""The event-driven execution core: rank state machine + calendar heap.

:class:`EventScheduler` is the ``event`` backend object ``Machine``
drives; it builds its own :class:`EventNetwork` and
:class:`EventCollectives` over the machine's wire.

Exactly **one** rank executes at any moment, on the calling thread.  A
rank runs until it blocks at a network operation — a receive with an
empty queue, or a collective it is not the last to enter — and only
then does the loop resume the next runnable rank, chosen
deterministically by smallest ``(virtual clock, rank)``.  Virtual time
is dataflow-determined (a receive completes at ``max(own clock, sender
arrival)``, a collective at ``max(clocks) + tree cost``), so this
dispatch order produces results bit-identical to the free-running
``threads`` oracle (``tests/test_scheduler_differential.py`` enforces
it) with none of its cost:

* rank state is a structure of arrays — a numpy ``float64`` clock
  vector and an ``int8`` state-code vector, plus a plain list of
  pending-op descriptors — instead of per-rank objects with dicts;
* the run queue is a calendar: a binary heap of ``(virtual clock,
  rank)`` entries.  A rank is pushed exactly when it becomes READY and
  popped exactly once, so the heap never holds stale entries (a
  blocked or ready rank's clock is frozen until it runs);
* node programs are Python **generator coroutines**: they ``yield``
  only at a genuine blocking point (inside one of
  :class:`EventProcContext`'s ``*_y`` ops) and a context switch is one
  ``gen.send(None)``.  No thread is ever created here; a plain
  callable node program is simply a coroutine that never yields;
* no locks or condition variables anywhere in the data path — plain
  dicts and lists, because there is never a second runner to race with;
* a collective completes in a **single rendezvous**: the last arrival
  computes ``max(clocks)``, runs the completion (rank-ordered
  reduction, broadcast consumption, exchange table snapshot) and puts
  every participant back on the calendar, then simply keeps running;
* deadlock is a native state — the heap is empty while some rank is
  still blocked — declared at the instant it becomes true and reported
  through the same :class:`~repro.machine.deadlock.DeadlockReport`
  (identical ``reason`` strings) as the thread backend's wait-for
  graph;
* fault plans work unchanged: every ``FaultPlan`` decision is a pure
  function of message identity and virtual time, never of scheduling.
"""

from __future__ import annotations

import heapq
import math
import time
from collections import deque
from typing import TYPE_CHECKING, Any, Generator, Optional

import numpy as np

from .deadlock import (
    BLOCKED_COLLECTIVE,
    BLOCKED_RECV,
    FAILED,
    FINISHED,
    RUNNING,
    AbortError,
    DeadlockError,
    DeadlockReport,
    SimulationError,
    build_report,
)
from .machine import ProcContext
from ..obs.tracer import ABSENT

if TYPE_CHECKING:
    from .wire import Wire, _Message

#: dispatches between wall-clock deadline probes in the event loop —
#: small enough that a ping-pong livelock dies within a fraction of a
#: second of the deadline, large enough that time.monotonic() never
#: shows up in profiles
_CHECK_EVERY = 256

#: int8 state codes for the structure-of-arrays rank state
S_READY = 0
S_RUNNING = 1
S_BLOCKED_RECV = 2
S_BLOCKED_COLL = 3
S_FINISHED = 4
S_FAILED = 5

#: code -> the deadlock module's string states (report parity)
_STATE_NAMES = {
    S_READY: "ready",
    S_RUNNING: RUNNING,
    S_BLOCKED_RECV: BLOCKED_RECV,
    S_BLOCKED_COLL: BLOCKED_COLLECTIVE,
    S_FINISHED: FINISHED,
    S_FAILED: FAILED,
}


class EventProcContext(ProcContext):
    """Node-processor context for the event loop: the blocking
    communication ops (``recv_y`` / ``broadcast_y`` / ``allreduce_y`` /
    ``barrier_y`` / ``exchange_y``) are generators that ``yield`` while
    blocked; node programs drive them with ``yield from``.
    """

    def recv_y(self, src: int, tag: int, origin: Optional[str] = None
               ) -> Generator[None, None, Any]:
        self._maybe_crash()
        sched = self.machine.backend
        net = sched.network
        rank = self.rank
        now = self.clock
        while True:
            got = net.try_recv(rank, src, tag, now, origin=origin)
            if got is not None:
                payload, t = got
                self.clock = t
                return payload
            if sched.failed:
                raise sched.failure_error(AbortError(
                    f"processor {rank} aborted while waiting for "
                    f"(src={src}, tag={tag})"
                ))
            sched.block_recv(rank, (src, tag), now)
            yield
            if sched.failed:
                raise sched.failure_error(AbortError(
                    f"processor {rank} aborted while waiting for "
                    f"(src={src}, tag={tag})"
                ))

    def broadcast_y(self, root: int, payload: Any, nbytes: int,
                    consume: Any = None, origin: Optional[str] = None
                    ) -> Generator[None, None, Any]:
        self._maybe_crash()
        data, self.clock = yield from self.machine.collectives.collective_y(
            self.rank, "bcast", self.clock, origin, root, payload, nbytes,
            consume
        )
        return data

    def allreduce_y(self, value: Any, op: str, nbytes: int = 8,
                    origin: Optional[str] = None
                    ) -> Generator[None, None, Any]:
        self._maybe_crash()
        result, self.clock = yield from self.machine.collectives.collective_y(
            self.rank, "reduce", self.clock, origin, op, value, nbytes
        )
        return result

    def barrier_y(self, origin: Optional[str] = None
                  ) -> Generator[None, None, None]:
        self._maybe_crash()
        _none, self.clock = yield from self.machine.collectives.collective_y(
            self.rank, "barrier", self.clock, origin
        )

    def exchange_y(self, outgoing: dict[int, Any], nbytes_out: int,
                   origin: Optional[str] = None
                   ) -> Generator[None, None, dict[int, Any]]:
        self._maybe_crash()
        table, self.clock = yield from self.machine.collectives.collective_y(
            self.rank, "exchange", self.clock, origin, None, outgoing,
            nbytes_out
        )
        return table


class EventScheduler:
    """The ``event`` backend object: SoA rank state, the calendar heap,
    dispatch, and the :class:`EventNetwork` / :class:`EventCollectives`
    it builds over the machine's wire.

    Those two drive the state transitions (``block_recv`` /
    ``unblock_recv`` / ``block_collective`` / ``release_collective``);
    ``Machine`` calls :meth:`finish` and :meth:`fail`.  Blocking
    *registers* the state and returns; the caller's generator then
    yields, and :meth:`run_ranks` resumes it when the rank is pushed
    back onto the heap.
    """

    Context = EventProcContext

    #: the dispatch count a replayed wall-clock timeout was declared at:
    #: set on a replay's backend by :meth:`prepare_replay`, it stands in
    #: for the wall clock (None: the wall clock decides)
    stop_after: Optional[int] = None

    def __init__(self, wire: "Wire", timeout_s: float) -> None:
        self.nprocs = nprocs = wire.nprocs
        self.timeout_s = timeout_s
        self.tracer = wire.tracer
        #: structure-of-arrays rank state
        self.clocks = np.zeros(nprocs, dtype=np.float64)
        self.states = np.full(nprocs, S_READY, dtype=np.int8)
        #: pending-op descriptor per rank: the awaited (src, tag) key or
        #: the collective label, None while runnable
        self._detail: list[object] = [None] * nprocs
        self._heap: list[tuple[float, int]] = []
        self.report: Optional[DeadlockReport] = None
        self.failed = False
        self.timed_out = False
        self.dispatches = 0
        self.switches = 0
        self.network = EventNetwork(wire, self, timeout_s)
        self.collectives = EventCollectives(wire, self)

    # -- failure surface ---------------------------------------------------

    def fail(self) -> None:
        """A rank errored: blocked ranks become dispatchable and raise
        when resumed (sequential, deterministic teardown)."""
        if self.failed:
            return
        self.failed = True
        self._push_blocked()

    def failure_error(self, fallback: SimulationError) -> SimulationError:
        """The error a torn-down rank raises: the deadlock diagnosis if
        one was declared, the secondary abort otherwise."""
        if self.report is not None:
            return DeadlockError(
                f"deadlock: {self.report.reason}\n{self.report.describe()}",
                self.report,
            )
        return fallback

    def prepare_replay(self, replica: "EventScheduler") -> bool:
        """Bound *replica*, the backend of a replay of this failed run:
        a wall-clock timeout is replayed up to the dispatch it was
        declared at, so the replay stops where this run stopped."""
        if self.timed_out:
            replica.stop_after = self.dispatches
        return True

    def _push_blocked(self) -> None:
        """Teardown: every blocked rank re-enters the calendar so its
        coroutine is resumed (and raises) in deterministic order."""
        for r in range(self.nprocs):
            if self.states[r] in (S_BLOCKED_RECV, S_BLOCKED_COLL):
                heapq.heappush(self._heap, (float(self.clocks[r]), r))

    def _snapshot(self) -> DeadlockReport:
        states = [_STATE_NAMES[int(s)] for s in self.states]
        clocks = [float(c) for c in self.clocks]
        return build_report(states, self._detail, clocks,
                            pending_of=self.network.pending_summary)

    def _declare_deadlock(self) -> None:
        """The heap ran empty with ranks still blocked: the event-loop
        native deadlock state.  Declared once, with the same report the
        other backends build."""
        if self.failed or self.report is not None:
            return
        if not any(int(s) in (S_BLOCKED_RECV, S_BLOCKED_COLL)
                   for s in self.states):
            return  # everyone finished: normal termination
        self.report = self._snapshot()
        self.failed = True
        self._push_blocked()

    # -- state transitions (called by EventNetwork / EventCollectives) ----

    def block_recv(self, rank: int, key: tuple[int, int],
                   clock: float) -> None:
        """Register the blocked state; the caller's generator yields."""
        self.states[rank] = S_BLOCKED_RECV
        self._detail[rank] = key
        self.clocks[rank] = clock
        if self.tracer is not None:
            self.tracer.emit(
                rank, ("sched.block", clock, 0.0, "recv", key[0], key[1]))

    def block_collective(self, rank: int, label: str, clock: float) -> None:
        self.states[rank] = S_BLOCKED_COLL
        self._detail[rank] = label
        self.clocks[rank] = clock
        if self.tracer is not None:
            self.tracer.emit(rank, ("sched.block", clock, 0.0, "collective",
                                    ABSENT, ABSENT, label))

    def unblock_recv(self, dst: int, key: tuple[int, int]) -> None:
        """A send matched *dst*'s awaited key: back onto the calendar."""
        if self.states[dst] == S_BLOCKED_RECV and self._detail[dst] == key:
            self.states[dst] = S_READY
            self._detail[dst] = None
            heapq.heappush(self._heap, (float(self.clocks[dst]), dst))
            if self.tracer is not None:
                self.tracer.emit(dst, (
                    "sched.unblock", float(self.clocks[dst]), 0.0,
                    "recv", key[0], key[1],
                ))

    def release_collective(self) -> None:
        """The last participant arrived: all waiters re-enter the
        calendar (batched delivery — one heap push per waiter, no
        thread wakeups)."""
        for r in range(self.nprocs):
            if self.states[r] == S_BLOCKED_COLL:
                self.states[r] = S_READY
                self._detail[r] = None
                heapq.heappush(self._heap, (float(self.clocks[r]), r))
                if self.tracer is not None:
                    self.tracer.emit(r, (
                        "sched.unblock", float(self.clocks[r]), 0.0,
                        "collective",
                    ))

    def finish(self, rank: int, clock: float, failed: bool = False) -> None:
        """Rank left its node program (called from the runner's
        ``finally``); the loop pops the next entry, and a deadlock this
        finish exposes is declared when the heap runs dry."""
        self.states[rank] = S_FAILED if failed else S_FINISHED
        self._detail[rank] = None
        self.clocks[rank] = clock

    def _teardown(self, coros: list[Any]) -> None:
        """Resume every live coroutine once so it observes the failure
        and exits — the same drain a declared deadlock gets from the
        main loop, run eagerly here so every rank's final clock and
        work land in RunStats before the caller writes the postmortem.
        Every live rank sits at a yield inside a communication op and
        raises on the resume; the loop is bounded defensively anyway."""
        self.fail()
        for _ in range(4 * self.nprocs):
            r = self._pop_runnable()
            if r is None:
                return
            self.states[r] = S_RUNNING
            try:
                coros[r].send(None)
            except StopIteration:
                continue
            except Exception:  # pragma: no cover - defensive
                continue
            # yielded again before observing the failure: one more pass
            heapq.heappush(self._heap, (float(self.clocks[r]), r))

    # -- the event loop ----------------------------------------------------

    def _pop_runnable(self) -> Optional[int]:
        heap = self._heap
        states = self.states
        failed = self.failed
        while heap:
            _t, r = heapq.heappop(heap)
            s = states[r]
            if s == S_READY or (
                failed and s in (S_BLOCKED_RECV, S_BLOCKED_COLL)
            ):
                return r
            # stale teardown entry (rank finished meanwhile): skip
        return None

    def run_ranks(self, coros: list[Any]) -> None:
        """Drive every rank coroutine to completion.

        ``coros[r].send(None)`` resumes rank *r* until it blocks
        (returns) or finishes (raises StopIteration — the runner
        wrapper has already recorded results/errors and called
        :meth:`finish` by then).
        """
        heap = self._heap
        for r in range(self.nprocs):
            heapq.heappush(heap, (0.0, r))
        tracer = self.tracer
        # Wall-clock safety net (REPRO_SIM_TIMEOUT): the calendar loop
        # runs on the calling thread, so a runaway program that keeps
        # generating events forever — e.g. one rank ping-ponging
        # messages while another stays blocked — would never hit the
        # per-wait timeouts the threads backend enforces.  Check
        # the deadline periodically (every _CHECK_EVERY dispatches:
        # cheap relative to one gen.send) and tear the run down with
        # the same DeadlockError surface the threads backend raises.  A
        # replay stops at a dispatch count instead (stop_after).
        if self.stop_after is None:
            deadline, stop = time.monotonic() + self.timeout_s, math.inf
        else:
            deadline, stop = math.inf, self.stop_after
        unchecked = 0
        while True:
            r = self._pop_runnable()
            if r is None:
                self._declare_deadlock()  # refills the heap on deadlock
                if not heap:
                    break
                continue
            unchecked += 1
            if unchecked >= _CHECK_EVERY:
                unchecked = 0
                if time.monotonic() > deadline or self.dispatches >= stop:
                    self.timed_out = True
                    # snapshot the rank states *before* teardown mutates
                    # them: the report feeds the postmortem bundle
                    if self.report is None:
                        self.report = self._snapshot()
                    # r was popped but not run: back on the calendar so
                    # the teardown resumes (and ends) it with the rest
                    heapq.heappush(heap, (float(self.clocks[r]), r))
                    self._teardown(coros)
                    raise DeadlockError(
                        f"deadlock: wall-clock timeout: event loop "
                        f"still dispatching after {self.timeout_s:.1f}s "
                        f"({self.dispatches} dispatches; runaway node "
                        f"program or REPRO_SIM_TIMEOUT too low)",
                        self.report,
                    )
            self.dispatches += 1
            self.states[r] = S_RUNNING
            if tracer is not None:
                tracer.emit(r, ("sched.dispatch", float(self.clocks[r]), 0.0))
            try:
                coros[r].send(None)
            except StopIteration:
                continue
            self.switches += 1
            if self.states[r] == S_RUNNING:  # pragma: no cover - defensive
                raise SimulationError(
                    f"rank {r} yielded without blocking"
                )


class EventNetwork:
    """Point-to-point interconnect for the event loop.

    Same wire model (:mod:`repro.machine.wire`) and error surface as
    :class:`~repro.machine.network.Network`, minus every lock and
    condition variable: only one rank executes at a time, so plain dicts
    suffice and a matched receive with a queued message costs a dict
    probe and a ``deque.popleft``.  ``send`` never blocks (enqueue +
    ready the receiver); the receive side is split: :meth:`try_recv`
    performs the non-blocking match, and the blocking loop (retry /
    register-blocked / yield) lives in :meth:`EventProcContext.recv_y`
    where it can suspend.
    """

    def __init__(self, wire: "Wire", scheduler: EventScheduler,
                 timeout_s: float) -> None:
        self.nprocs = wire.nprocs
        self.timeout_s = timeout_s
        self.sched = scheduler
        self._post = wire.post
        self._take = wire.take
        self._queues: list[dict[tuple[int, int], deque[_Message]]] = [
            {} for _ in range(self.nprocs)
        ]

    # -- traffic -----------------------------------------------------------

    def send(
        self, src: int, dst: int, tag: int, payload: Any, nbytes: int,
        now: float, origin: Optional[str] = None,
    ) -> float:
        """Deliver a message; returns the sender's clock after the send."""
        if self.sched.failed:
            raise self.sched.failure_error(AbortError(
                f"processor {src} aborted before send to {dst}"
            ))
        msg, sender_after = self._post(
            src, dst, tag, payload, nbytes, now, origin
        )
        key = (src, tag)
        q = self._queues[dst].get(key)
        if q is None:
            q = self._queues[dst][key] = deque()
        q.append(msg)
        self.sched.unblock_recv(dst, key)
        return sender_after

    def try_recv(self, dst: int, src: int, tag: int, now: float,
                 origin: Optional[str] = None
                 ) -> Optional[tuple[Any, float]]:
        """Non-blocking matched receive: ``(payload, new clock)`` when a
        message is deliverable, None otherwise."""
        if not (0 <= src < self.nprocs):
            raise SimulationError(f"recv from invalid processor {src}")
        key = (src, tag)
        queues = self._queues[dst]
        q = queues.get(key)
        if not q:
            return None
        m = q.popleft()
        if not q:
            del queues[key]
        return self._take(m, dst, tag, now, origin)

    # -- introspection -----------------------------------------------------

    def pending_summary(
        self, dst: int
    ) -> list[tuple[tuple[int, int], int]]:
        return sorted(
            (key, len(q)) for key, q in self._queues[dst].items() if q
        )


class EventCollectives:
    """Single-rendezvous collectives as generators.

    Every participant deposits its contribution (:meth:`Wire.join`); a
    non-last arrival registers its blocked state and ``yield``s, the
    last arrival closes the round (:meth:`Wire.close_round`), puts
    everyone back on the calendar, and keeps going; each participant
    then settles its own clock (:meth:`Wire.settle`).
    """

    def __init__(self, wire: "Wire", scheduler: EventScheduler) -> None:
        self.wire = wire
        self.nprocs = wire.nprocs
        self.sched = scheduler
        self._arrived = 0

    def collective_y(self, rank: int, label: str, now: float,
                     origin: Optional[str], param: Any = None,
                     value: Any = None, nbytes: int = 0,
                     consume: Any = None
                     ) -> Generator[None, None, tuple[Any, float]]:
        """One rendezvous: deposit, wait for every rank, settle;
        returns (result, new clock)."""
        sched = self.sched
        if sched.failed:
            raise sched.failure_error(AbortError(
                f"processor {rank} aborted inside collective {label!r} "
                f"(a peer failed or deadlocked)"
            ))
        wire = self.wire
        wire.join(rank, label, now, param, value, nbytes, consume)
        self._arrived += 1
        if self._arrived == self.nprocs:
            self._arrived = 0
            wire.close_round()
            sched.release_collective()
        else:
            sched.block_collective(rank, label, now)
            yield
            if sched.failed:
                raise sched.failure_error(AbortError(
                    f"processor {rank} aborted inside collective "
                    f"{label!r} (a peer failed or deadlocked)"
                ))
        return wire.settle(rank, now, origin)
